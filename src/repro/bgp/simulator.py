"""BGP route propagation over an AS graph for one announcement configuration.

The simulator computes, for every AS, the best route toward the origin's
prefix under the configured announcement ⟨A; P; Q⟩, applying the decision
process of §II (LocalPref → AS-path length → deterministic tiebreaks) and
the import/export policies of :class:`repro.bgp.policy.PolicyModel`.

Propagation is a Gauss-Seidel fixpoint iteration: ASes are visited in a
fixed order, each re-selecting its best route from its neighbors' current
selections, until a full pass changes nothing.  Under Gao-Rexford policies
this converges in a number of passes proportional to the routing-system
diameter; deviant-policy ASes can in principle oscillate, so the iteration
is bounded and the outcome records whether a fixpoint was reached.

Propagation runs on the compiled, integer-indexed frontier core of
:mod:`repro.bgp.indexed`, which re-evaluates only ASes whose
neighborhood changed yet reproduces the full sweep's trajectory exactly
(routes, catchments, passes, decision changes).  The core inlines the
base :class:`~repro.bgp.policy.PolicyModel` import/export semantics, so
a policy overriding ``accepts``/``exports`` is rejected when the
simulator is built rather than silently run with base semantics.

The per-link *catchment* — the set of ASes whose best route descends from
that peering link — falls directly out of the fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional

from ..errors import SimulationError
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..types import ASN, ASPath, LinkId
from .announcement import AnnouncementConfig
from .indexed import CompiledTopology
from .policy import PolicyModel
from .route import Route

#: Default bound on Gauss-Seidel passes before declaring non-convergence.
DEFAULT_MAX_PASSES = 60


@dataclass
class RoutingOutcome:
    """Result of simulating one announcement configuration.

    Attributes:
        config: the configuration that was simulated.
        routes: best route per AS (ASes with no route are absent), as a
            read-only :class:`~repro.bgp.indexed.RouteTable`: a mapping
            that also answers ``link_of``, ``path_of`` and
            ``forwarding_path`` off its arrays, building no route.
        catchments: per announced link, the set of ASes routed toward it;
            simulated outcomes hold a
            :class:`~repro.bgp.indexed.RouteCatchments`, which builds the
            sets off the route table the first time one is read.
        passes: Gauss-Seidel passes executed.
        decision_changes: total number of best-route changes observed.
        converged: whether a full pass with no changes was reached.
    """

    config: AnnouncementConfig
    routes: Mapping[ASN, Route]
    catchments: Dict[LinkId, FrozenSet[ASN]]
    passes: int
    decision_changes: int
    converged: bool
    origin_asn: ASN
    #: Whether the fixpoint was seeded from a prior outcome's routes.
    warm_started: bool = False

    def route(self, asn: ASN) -> Optional[Route]:
        """Best route of ``asn``, or None if it has no route."""
        return self.routes.get(asn)

    def catchment_of(self, asn: ASN) -> Optional[LinkId]:
        """Peering link whose catchment contains ``asn`` (None if unrouted)."""
        return self.routes.link_of(asn)

    @property
    def covered_ases(self) -> FrozenSet[ASN]:
        """ASes holding a route toward the prefix."""
        return frozenset(self.routes)

    def forwarding_path(self, asn: ASN) -> ASPath:
        """Data-plane AS path from ``asn`` to the origin.

        Unlike the control-plane AS-path, this excludes prepending
        repetitions and poison stuffing: it is the chain of ASes packets
        actually traverse, ending at the origin.  Used by the traceroute
        simulation.  The walk is the route table's
        (:meth:`~repro.bgp.indexed.RouteTable.forwarding_path`): it
        follows the next hops without building a route.

        Raises:
            SimulationError: if ``asn`` is not part of the simulated
                topology at all, if it holds no route, or if the next-hop
                chain is broken (only possible on non-converged outcomes).
        """
        return self.routes.forwarding_path(asn)


class RoutingSimulator:
    """Propagates announcement configurations over a topology.

    Args:
        graph: AS topology including the attached origin AS.
        origin: the origin network whose links announce the prefix.
        policy: routing policies; a default Gao-Rexford model is built
            when omitted.
        max_passes: bound on fixpoint iterations.
        strict: when True, non-convergence raises
            :class:`repro.errors.ConvergenceError`; when False the
            (still well-defined) state at the bound is returned with
            ``converged=False``.

    Raises:
        SimulationError: if an origin link is missing from the graph,
            ``max_passes`` is not positive, or ``policy`` overrides
            ``accepts``/``exports`` (the compiled core cannot honor
            that; overriding scalar hooks such as ``salt_for`` is fine).
    """

    def __init__(
        self,
        graph: ASGraph,
        origin: OriginNetwork,
        policy: Optional[PolicyModel] = None,
        max_passes: int = DEFAULT_MAX_PASSES,
        strict: bool = False,
    ) -> None:
        for link in origin.links:
            if not graph.has_link(origin.asn, link.provider):
                raise SimulationError(
                    f"origin {origin.asn} not linked to provider {link.provider} "
                    f"of {link.link_id!r} in the topology"
                )
        if max_passes < 1:
            raise SimulationError("max_passes must be positive")
        policy = policy if policy is not None else PolicyModel(graph)
        if (
            type(policy).accepts is not PolicyModel.accepts
            or type(policy).exports is not PolicyModel.exports
        ):
            raise SimulationError(
                f"{type(policy).__name__} overrides accepts/exports, which "
                "the compiled propagation core cannot honor"
            )
        self.graph = graph
        self.origin = origin
        self.policy = policy
        self.max_passes = max_passes
        self.strict = strict
        # Stable visit order: hierarchy-ish (providers of the origin first
        # via BFS from the origin) so information flows outward quickly and
        # convergence needs few passes.
        distances = graph.hop_distances([origin.asn])
        self._visit_order: List[ASN] = sorted(
            (asn for asn in graph.ases if asn != origin.asn),
            key=lambda asn: (distances.get(asn, len(graph)), asn),
        )
        self._compiled: Optional[CompiledTopology] = None

    # ------------------------------------------------------------------

    def simulate(
        self,
        config: AnnouncementConfig,
        warm_start: Optional[Mapping[ASN, Route]] = None,
    ) -> RoutingOutcome:
        """Propagate ``config`` to a fixpoint and return the outcome.

        Args:
            config: the announcement configuration to propagate.
            warm_start: best routes of a previously simulated, similar
                configuration (e.g. the same announcement set without
                prepending).  The fixpoint iteration is seeded from these
                routes instead of the empty state, which typically cuts
                the number of Gauss-Seidel passes substantially.  Seeded
                routes through links the new configuration does not
                announce — or whose AS-path no longer ends in the path
                this configuration announces through their link (e.g.
                after a prepending change) — are discarded; every
                surviving seed is still re-evaluated by the decision
                process, so the fixpoint reached is a genuine stable
                state of ``config`` (route chains can never be circular —
                path lengths grow along them — so at a fixpoint every
                chain terminates in a freshly announced path).  The
                stale-tail filter matters: deviant-policy topologies
                admit multiple stable states, and stale seeds can steer
                the iteration into a different one than a cold start
                reaches.  When ``warm_start`` is the ``routes`` of a
                converged outcome of this simulator (a
                :class:`~repro.bgp.indexed.RouteTable`), pass 1
                re-evaluates only the ASes whose inputs differ from that
                fixpoint's; any other mapping gets the full pass 1.
                Either way the outcome is the one the full sweep
                reaches, pass counts included.

        Returns:
            The outcome; its ``routes`` is a read-only
            :class:`~repro.bgp.indexed.RouteTable` that builds each
            :class:`~repro.bgp.route.Route` on first lookup.
        """
        self._validate_config(config)
        if self._compiled is None:
            self._compiled = CompiledTopology.compile(
                self.graph, self.origin, self.policy, self._visit_order
            )
        return self._compiled.propagate(
            config, warm_start, self.max_passes, self.strict
        )

    # ------------------------------------------------------------------

    def _validate_config(self, config: AnnouncementConfig) -> None:
        known = set(self.origin.link_ids)
        unknown = set(config.announced) - known
        if unknown:
            raise SimulationError(
                f"configuration announces from unknown links {sorted(unknown)}"
            )
