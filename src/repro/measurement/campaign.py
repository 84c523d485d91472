"""End-to-end catchment measurement campaign.

Ties the measurement substrate together the way the paper's experiment
does: for each announcement configuration, collect public BGP feed paths
and Atlas traceroutes, repair the traceroutes, infer AS-level paths,
attribute every usable path to an origin peering link, resolve conflicts
(BGP priority, then majority), and accumulate the per-configuration
assignments into a :class:`~repro.measurement.catchment.CatchmentHistory`
for smax imputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bgp.simulator import RoutingOutcome
from ..faults.injection import FaultInjector
from ..topology.peering import OriginNetwork
from ..types import ASN, LinkId
from .atlas import AtlasProbeFleet
from .catchment import (
    KIND_BGP,
    KIND_TRACEROUTE,
    CatchmentObservation,
    ResolutionStats,
    resolve_observations,
)
from .collectors import BGPCollectorSet, link_of_bgp_path
from .ip2as import IPToASMapper
from .repair import (
    as_path_with_reason,
    build_bgp_segment_index,
    build_gap_index,
    gap_queries,
)


@dataclass
class ConfigMeasurement:
    """Everything measured for one configuration.

    Attributes:
        assignment: resolved source → link map.
        stats: conflict-resolution statistics.
        bgp_paths_observed: number of usable BGP feed paths.
        traceroutes_observed: number of usable traceroutes.
        collectors_flapped: vantage observations lost to injected
            collector flaps.
        traceroutes_lost: traceroutes lost in flight (injected
            measurement loss).
        traceroutes_dropped: degenerate traceroutes dropped with an
            explicit reason, counted by reason.
    """

    assignment: Dict[ASN, LinkId]
    stats: ResolutionStats
    bgp_paths_observed: int = 0
    traceroutes_observed: int = 0
    collectors_flapped: int = 0
    traceroutes_lost: int = 0
    traceroutes_dropped: Dict[str, int] = field(default_factory=dict)


class MeasurementCampaign:
    """Measures catchments for routing outcomes using feeds + probes.

    Args:
        origin: the announcing network.
        collectors: BGP feed vantage set.
        fleet: Atlas-like probe fleet.
        mapper: IP-to-AS mapper for traceroute hops.
    """

    def __init__(
        self,
        origin: OriginNetwork,
        collectors: BGPCollectorSet,
        fleet: AtlasProbeFleet,
        mapper: IPToASMapper,
    ) -> None:
        self.origin = origin
        self.collectors = collectors
        self.fleet = fleet
        self.mapper = mapper

    def measure(
        self,
        outcome: RoutingOutcome,
        fault_token: int = 0,
        injector: Optional[FaultInjector] = None,
        registry=None,
    ) -> ConfigMeasurement:
        """Measure one configuration's catchments.

        Args:
            outcome: the routing outcome to observe.
            fault_token: deterministic identity of this measurement round
                (typically the configuration's schedule index) — drives
                the injector's per-round fault decisions.
            injector: optional chaos hook; collector flaps and traceroute
                loss fire here, before repair, exactly where production
                measurements fail.
            registry: optional :class:`~repro.obs.metrics.MetricsRegistry`
                accumulating campaign counters (paths observed, drops by
                reason, injected losses) across the run.
        """
        observations: List[CatchmentObservation] = []

        bgp_observations = self.collectors.observe(outcome)
        collectors_flapped = 0
        if injector is not None:
            bgp_observations, collectors_flapped = injector.flap_collectors(
                fault_token, bgp_observations
            )
        bgp_paths = list(bgp_observations.values())
        usable_bgp = 0
        for vantage, path in bgp_observations.items():
            link = link_of_bgp_path(self.origin, path)
            if link is None:
                continue
            usable_bgp += 1
            # Every AS on the path (except the origin) is evidence of
            # membership in this link's catchment — BGP paths reveal the
            # routing decision of each traversed AS, not just the vantage.
            for asn in path:
                if asn == self.origin.asn:
                    break
                observations.append(
                    CatchmentObservation(source_as=asn, link=link, kind=KIND_BGP)
                )

        traceroutes = self.fleet.all_traceroutes(outcome)
        traceroutes_lost = 0
        if injector is not None:
            traceroutes, traceroutes_lost = injector.drop_traceroutes(
                fault_token, traceroutes
            )
        # Only traces that reached the target are repaired below, so the
        # gap index answers just the brackets those traces query.
        gap_index = build_gap_index(
            traceroutes,
            gap_queries(trace for trace in traceroutes if trace.reached_target),
        )
        bgp_segments = build_bgp_segment_index(bgp_paths)
        usable_traces = 0
        dropped: Dict[str, int] = {}
        for trace in traceroutes:
            if not trace.reached_target:
                continue
            as_path, drop_reason = as_path_with_reason(
                trace, self.mapper, gap_index, bgp_segments
            )
            if drop_reason is not None:
                dropped[drop_reason] = dropped.get(drop_reason, 0) + 1
                continue
            link = link_of_bgp_path(self.origin, as_path)
            if link is None:
                continue
            usable_traces += 1
            for asn in as_path:
                if asn == self.origin.asn:
                    break
                observations.append(
                    CatchmentObservation(
                        source_as=asn, link=link, kind=KIND_TRACEROUTE
                    )
                )

        assignment, stats = resolve_observations(observations)
        assignment.pop(self.origin.asn, None)
        if registry is not None:
            registry.counter(
                "repro_campaign_bgp_paths_total",
                help="usable BGP feed paths observed",
            ).inc(usable_bgp)
            registry.counter(
                "repro_campaign_traceroutes_total",
                help="usable traceroutes observed",
            ).inc(usable_traces)
            registry.counter(
                "repro_campaign_collectors_flapped_total",
                help="vantage observations lost to injected collector flaps",
            ).inc(collectors_flapped)
            registry.counter(
                "repro_campaign_traceroutes_lost_total",
                help="traceroutes lost in flight (injected loss)",
            ).inc(traceroutes_lost)
            for reason, count in sorted(dropped.items()):
                registry.counter(
                    "repro_campaign_traceroutes_dropped_total",
                    help="degenerate traceroutes dropped, by reason",
                    labels={"reason": reason},
                ).inc(count)
        return ConfigMeasurement(
            assignment=assignment,
            stats=stats,
            bgp_paths_observed=usable_bgp,
            traceroutes_observed=usable_traces,
            collectors_flapped=collectors_flapped,
            traceroutes_lost=traceroutes_lost,
            traceroutes_dropped=dropped,
        )
