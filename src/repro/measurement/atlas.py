"""RIPE-Atlas-like probe fleet.

The paper issues traceroutes from 1,600 RIPE Atlas probes toward the
PEERING prefix every 20 minutes, keeping each configuration active long
enough to collect at least three post-convergence rounds (§IV).  This
module models the fleet: probe placement across ASes and its scheduled
measurement rounds.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from ..bgp.simulator import RoutingOutcome
from ..errors import MeasurementError
from ..topology.graph import ASGraph
from ..types import ASN
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

    def all_traceroutes(self, outcome: RoutingOutcome) -> List[Traceroute]:
        """All traceroutes of every round under one configuration, round
        by round, each in probe order (probes with no route give none)."""
        return self.engine.synthesize(
            outcome, self.probe_ases, range(self.rounds_per_config)
        )
