"""Routing-policy compliance and catchment prediction (paper §V-C, Fig. 9).

Two pieces:

* :func:`policy_compliance` checks, per configuration, which ASes route
  according to BGP's first two decision criteria — *best relationship*
  (customer > peer > provider) and *shortest path* among equally-preferred
  routes (together, the Gao-Rexford model).  The paper finds most ASes
  follow both, suggesting catchments are predictable.
* :class:`CatchmentPredictor` exploits exactly that: it predicts a
  configuration's catchments by simulating with a *clean* Gao-Rexford
  policy (no deviants, no disabled loop prevention) and reports how well
  the prediction matches reality — the paper's proposed shortcut to avoid
  measuring every configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..bgp.policy import PolicyModel
from ..bgp.simulator import RoutingOutcome, RoutingSimulator
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..topology.relationships import Relationship
from ..types import ASN, Catchment, LinkId, path_without_prepending


@dataclass(frozen=True)
class ComplianceStats:
    """Per-configuration policy-compliance fractions.

    Attributes:
        ases_checked: ASes with a route and at least one alternative.
        best_relationship: fraction choosing a route in the most-preferred
            available relationship class.
        best_relationship_and_shortest: fraction additionally choosing a
            shortest (prepending-collapsed) path within that class —
            the Gao-Rexford model.
    """

    ases_checked: int
    best_relationship: float
    best_relationship_and_shortest: float


#: Gao-Rexford class ranks (lower = more preferred).
_CLASS_RANK = {
    Relationship.CUSTOMER: 0,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 2,
}


def policy_compliance(
    outcome: RoutingOutcome,
    graph: ASGraph,
    policy: PolicyModel,
    origin: Optional[OriginNetwork] = None,
) -> ComplianceStats:
    """Check observed routing decisions against Gao-Rexford criteria.

    For each AS holding a route, the candidate set is reconstructed from
    its neighbors' selected routes (applying export filters), mirroring
    how the paper reconstructs alternatives from paths observed across its
    dataset.  Path lengths are compared with prepending collapsed — the
    inflation the origin injected is not the AS's own choice.

    Args:
        outcome: the routing outcome to audit.
        graph: the topology.
        policy: export rules used to reconstruct candidate sets.
        origin: when given, the origin's direct announcements are included
            as candidates at its providers.
    """
    checked = 0
    relationship_ok = 0
    both_ok = 0
    origin_asn = outcome.origin_asn
    link_of_provider: Dict[ASN, LinkId] = {}
    if origin is not None:
        link_of_provider = {
            origin.provider_of(link): link
            for link in outcome.config.announced
        }
    # Each AS's route is read once per neighbor: build each one once.
    routes = dict(outcome.routes.items())
    for asn, route in routes.items():
        candidates: Dict[ASN, Tuple[int, int]] = {}
        for neighbor, neighbor_relationship in graph.neighbors(asn).items():
            if neighbor == origin_asn:
                link = link_of_provider.get(asn)
                if link is not None:
                    announced = outcome.config.as_path_for_link(origin_asn, link)
                    candidates[neighbor] = (
                        _CLASS_RANK[neighbor_relationship],
                        len(path_without_prepending(announced)),
                    )
                continue
            neighbor_route = routes.get(neighbor)
            if neighbor_route is None or neighbor_route.learned_from == asn:
                continue
            if not policy.exports(
                neighbor_route.relationship, graph.relationship(neighbor, asn)
            ):
                continue
            collapsed = path_without_prepending(neighbor_route.as_path)
            candidates[neighbor] = (
                _CLASS_RANK[neighbor_relationship],
                len(collapsed) + 1,
            )
        if len(candidates) < 2:
            continue  # no real choice to audit
        checked += 1
        chosen = candidates.get(route.learned_from)
        if chosen is None:
            continue
        best_class = min(rank for rank, _ in candidates.values())
        if chosen[0] != best_class:
            continue
        relationship_ok += 1
        shortest_in_class = min(
            length for rank, length in candidates.values() if rank == best_class
        )
        if chosen[1] <= shortest_in_class:
            both_ok += 1
    return ComplianceStats(
        ases_checked=checked,
        best_relationship=relationship_ok / checked if checked else 1.0,
        best_relationship_and_shortest=both_ok / checked if checked else 1.0,
    )


@dataclass(frozen=True)
class PredictionAccuracy:
    """Agreement between predicted and actual catchments.

    Attributes:
        ases_compared: ASes present in both outcomes.
        fraction_correct: fraction assigned to the same link.
    """

    ases_compared: int
    fraction_correct: float


class CatchmentPredictor:
    """Predicts catchments with an idealized Gao-Rexford simulation.

    The predictor shares the topology but none of the deviant-policy
    state, standing in for an operator's model of the Internet built from
    public relationship data.
    """

    def __init__(self, graph: ASGraph, origin: OriginNetwork) -> None:
        ideal_policy = PolicyModel(
            graph,
            seed=0,
            policy_noise=0.0,
            loop_prevention_disabled_fraction=0.0,
        )
        self._simulator = RoutingSimulator(graph, origin, ideal_policy)

    def predict(self, config) -> RoutingOutcome:
        """Predicted routing outcome for ``config``."""
        return self._simulator.simulate(config)

    @staticmethod
    def accuracy(
        predicted: RoutingOutcome, actual: RoutingOutcome
    ) -> PredictionAccuracy:
        """Fraction of ASes whose predicted catchment matches reality."""
        compared = 0
        correct = 0
        for asn, route in actual.routes.items():
            predicted_route = predicted.routes.get(asn)
            if predicted_route is None:
                continue
            compared += 1
            if predicted_route.link_id == route.link_id:
                correct += 1
        return PredictionAccuracy(
            ases_compared=compared,
            fraction_correct=correct / compared if compared else 1.0,
        )
