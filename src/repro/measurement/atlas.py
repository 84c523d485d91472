"""RIPE-Atlas-like probe fleet.

The paper issues traceroutes from 1,600 RIPE Atlas probes toward the
PEERING prefix every 20 minutes, keeping each configuration active long
enough to collect at least three post-convergence rounds (§IV).  This
module models the fleet: probe placement across ASes, scheduled
measurement rounds, and per-round losses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..bgp.simulator import RoutingOutcome
from ..errors import MeasurementError
from ..topology.graph import ASGraph
from ..types import ASN, ASPath
from .traceroute import Traceroute, TracerouteEngine


def select_probe_ases(
    graph: ASGraph,
    count: int,
    seed: int = 0,
    exclude: Iterable[ASN] = (),
) -> List[ASN]:
    """Choose ASes hosting probes (uniform sample; Atlas skews residential).

    Raises:
        MeasurementError: when fewer than ``count`` ASes are eligible.
    """
    excluded = set(exclude)
    eligible = sorted(asn for asn in graph.ases if asn not in excluded)
    if count > len(eligible):
        raise MeasurementError(
            f"requested {count} probe ASes but only {len(eligible)} eligible"
        )
    rng = random.Random(seed)
    return sorted(rng.sample(eligible, count))


@dataclass(frozen=True)
class MeasurementRound:
    """Traceroutes of one probing round under one configuration."""

    round_index: int
    traceroutes: List[Traceroute]


class AtlasProbeFleet:
    """A fixed fleet of probes issuing traceroutes toward the prefix.

    Args:
        probe_ases: ASes hosting one probe each.
        engine: the traceroute engine to measure with.
        rounds_per_config: measurement rounds collected per configuration
            (the paper ensures at least three post-convergence rounds).
    """

    def __init__(
        self,
        probe_ases: Sequence[ASN],
        engine: TracerouteEngine,
        rounds_per_config: int = 3,
    ) -> None:
        if not probe_ases:
            raise MeasurementError("probe fleet needs at least one probe")
        if rounds_per_config < 1:
            raise MeasurementError("need at least one measurement round")
        self.probe_ases = sorted(set(probe_ases))
        self.engine = engine
        self.rounds_per_config = rounds_per_config

    def measure(self, outcome: RoutingOutcome) -> List[MeasurementRound]:
        """Collect all rounds of traceroutes for one configuration.

        The outcome's forwarding paths are memoized for this call only:
        probes re-trace the same paths round after round.
        """
        rounds: List[MeasurementRound] = []
        config_key = outcome.config.describe()
        paths: Dict[ASN, Optional[ASPath]] = {}
        for round_index in range(self.rounds_per_config):
            traceroutes = []
            for probe_as in self.probe_ases:
                trace = self.engine.measure(
                    outcome, probe_as, round_index, config_key=config_key, paths=paths
                )
                if trace is not None:
                    traceroutes.append(trace)
            rounds.append(
                MeasurementRound(round_index=round_index, traceroutes=traceroutes)
            )
        return rounds

    def all_traceroutes(self, outcome: RoutingOutcome) -> List[Traceroute]:
        """All traceroutes across rounds, flattened."""
        return [
            trace
            for round_ in self.measure(outcome)
            for trace in round_.traceroutes
        ]
