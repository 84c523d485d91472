"""End-to-end orchestration: build a testbed, run the paper's pipeline.

:func:`build_testbed` assembles every substrate (topology, origin, policy,
simulator, address plan, IXPs, feeds, probe fleet) from a single seed.
:class:`SpoofTracker` then runs the paper's workflow over it:

1. generate the three-phase announcement schedule (§III-A/§IV-a),
2. simulate (and optionally *measure*, via feeds + traceroutes) each
   configuration's catchments,
3. refine clusters across configurations (§III-B),
4. attribute observed spoofed volumes to clusters (§III-C / §V-D).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..live.service import LiveRunStats
    from ..obs import RunManifest
    from .refinement import SplitReport

from ..faults.health import InvariantMonitor, ResilienceReport, build_resilience_report
from ..faults.injection import FaultInjector

from ..bgp.announcement import AnnouncementConfig
from ..bgp.policy import PolicyModel
from ..bgp.simulator import RoutingOutcome, RoutingSimulator
from ..errors import ReproError, SchedulingError
from ..measurement.atlas import AtlasProbeFleet, select_probe_ases
from ..measurement.campaign import MeasurementCampaign
from ..measurement.collectors import BGPCollectorSet, select_vantages
from ..measurement.ip2as import AddressPlan, IPToASMapper
from ..measurement.ixp import IXPRegistry, synthesize_ixps
from ..measurement.traceroute import TracerouteEngine, TracerouteParams
from ..obs import Observability, record_engine_stats, record_fault_log
from ..spoof.sources import SourcePlacement
from ..spoof.traffic import link_volumes
from ..topology.generator import GeneratedTopology, TopologyParams, generate_topology
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork, attach_origin
from ..types import ASN, Catchment, LinkId
from .clustering import ClusterState
from .configgen import ScheduleParams, generate_schedule
from .engine import EngineStats, SimulationEngine, require_serial
from .evidence import Evidence
from .localization import LocalizationResult, SpoofLocalizer


@dataclass
class Testbed:
    """Every substrate needed to reproduce the paper's experiments."""

    topology: GeneratedTopology
    origin: OriginNetwork
    policy: PolicyModel
    simulator: RoutingSimulator
    plan: AddressPlan
    ixps: IXPRegistry
    mapper: IPToASMapper
    collectors: BGPCollectorSet
    fleet: AtlasProbeFleet
    campaign: MeasurementCampaign
    #: Construction recipe (when built by :meth:`TestbedSpec.build`).
    spec: Optional["TestbedSpec"] = None

    @property
    def graph(self) -> ASGraph:
        """The AS topology graph (origin attached)."""
        return self.topology.graph


@dataclass(frozen=True)
class TestbedSpec:
    """Value-type recipe for a :class:`Testbed`; :meth:`build` wires it.

    Everything here is a value type (ints, floats, frozen dataclasses),
    and rebuilding is deterministic: ``spec.build()`` in any process
    yields a testbed whose simulator is bit-identical to the original.
    """

    seed: int = 0
    topology_params: Optional[TopologyParams] = None
    num_links: int = 7
    policy_noise: float = 0.05
    loop_prevention_disabled_fraction: float = 0.02
    num_vantages: int = 25
    num_probes: int = 120
    traceroute_params: Optional[TracerouteParams] = None
    rounds_per_config: int = 3
    with_geography: bool = False

    def build(self) -> "Testbed":
        """Build the fully wired testbed this spec describes.

        Defaults give a PEERING-scale setup: 7 peering links, collector
        and probe coverage proportional to the paper's (all public feeds,
        1,600 Atlas probes over a ~70k-AS Internet ≈ a few percent of
        ASes).

        With ``with_geography=True`` every AS is assigned a region and
        ties between equally-preferred routes resolve hot-potato (toward
        the geographically closest neighbor) instead of by arbitrary
        router state.
        """
        seed = self.seed
        params = self.topology_params or TopologyParams(seed=seed)
        if params.seed != seed:
            params = replace(params, seed=seed)
        topology = generate_topology(params)
        origin = attach_origin(topology, num_links=self.num_links, seed=seed)
        graph = topology.graph
        geography = None
        if self.with_geography:
            from ..topology.geography import GeographyModel

            geography = GeographyModel.random(graph.ases, seed=seed)
        policy = PolicyModel(
            graph,
            seed=seed,
            policy_noise=self.policy_noise,
            loop_prevention_disabled_fraction=(
                self.loop_prevention_disabled_fraction
            ),
            geography=geography,
        )
        simulator = RoutingSimulator(graph, origin, policy)
        plan = AddressPlan(graph.ases, origin.asn)
        ixps = synthesize_ixps(graph, seed=seed)
        mapper = IPToASMapper(plan, ixps.prefixes())
        engine = TracerouteEngine(
            graph,
            plan,
            ixps,
            self.traceroute_params or TracerouteParams(seed=seed),
        )
        vantages = select_vantages(
            graph, self.num_vantages, seed=seed, exclude=[origin.asn]
        )
        collectors = BGPCollectorSet(vantages, origin)
        probe_ases = select_probe_ases(
            graph, self.num_probes, seed=seed + 1, exclude=[origin.asn]
        )
        fleet = AtlasProbeFleet(
            probe_ases, engine, rounds_per_config=self.rounds_per_config
        )
        campaign = MeasurementCampaign(origin, collectors, fleet, mapper)
        return Testbed(
            topology=topology,
            origin=origin,
            policy=policy,
            simulator=simulator,
            plan=plan,
            ixps=ixps,
            mapper=mapper,
            collectors=collectors,
            fleet=fleet,
            campaign=campaign,
            spec=self,
        )


def build_testbed(seed: int = 0, **options) -> Testbed:
    """Build a fully wired testbed from one seed.

    ``options`` are the other :class:`TestbedSpec` fields; see
    :meth:`TestbedSpec.build`.
    """
    return TestbedSpec(seed=seed, **options).build()


@dataclass(frozen=True)
class StepStats:
    """Cluster statistics after deploying one configuration."""

    config_label: str
    phase: str
    num_clusters: int
    mean_cluster_size: float
    p90_cluster_size: float


@dataclass
class TrackerReport:
    """Everything :meth:`SpoofTracker.run` produced.

    Attributes:
        universe: sources analyzed (observed under the first anycast).
        steps: per-configuration cluster statistics.
        clusters: final partition, largest cluster first.
        catchment_history: per-configuration catchment maps used for
            clustering (measured+imputed in measured mode, ground truth
            otherwise).
        localization: volume attribution (when a placement was given).
        placement: the ground-truth placement (when given).
        measured: whether catchments came from feeds/traceroutes.
        engine_stats: simulation-engine counters for this run (configs
            simulated, cache hits, warm-start savings, wall time).
        live_stats: online-runtime counters when the report came from a
            :class:`~repro.live.service.LiveTracebackService` replay
            (windows observed, dropped volume, dwell, stop reason).
        resilience: chaos accounting and invariant-check outcomes when
            the run carried a fault injector.
        manifest: frozen run inputs + environment
            (:class:`~repro.obs.manifest.RunManifest`) when the run was
            launched through an instrumented entry point.
        strategy: registry name of the traceback strategy that planned
            the deployment order, when one did (None = schedule order).
    """

    universe: FrozenSet[ASN]
    steps: List[StepStats]
    clusters: List[FrozenSet[ASN]]
    catchment_history: List[Dict[LinkId, Catchment]]
    localization: Optional[LocalizationResult] = None
    placement: Optional[SourcePlacement] = None
    measured: bool = False
    split_report: Optional["SplitReport"] = None
    engine_stats: Optional[EngineStats] = None
    live_stats: Optional["LiveRunStats"] = None
    resilience: Optional["ResilienceReport"] = None
    manifest: Optional["RunManifest"] = None
    strategy: Optional[str] = None

    @property
    def mean_cluster_size(self) -> float:
        """Final mean cluster size (paper headline: 1.40 ASes)."""
        return len(self.universe) / len(self.clusters)

    @property
    def singleton_cluster_fraction(self) -> float:
        """Final fraction of single-AS clusters (paper headline: 92%)."""
        singles = sum(1 for cluster in self.clusters if len(cluster) == 1)
        return singles / len(self.clusters)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"configurations deployed : {len(self.steps)}",
            f"sources analyzed        : {len(self.universe)} ASes"
            + (" (measured catchments)" if self.measured else " (ground truth)"),
            f"final clusters          : {len(self.clusters)}",
            f"mean cluster size       : {self.mean_cluster_size:.2f} ASes",
            f"singleton clusters      : {self.singleton_cluster_fraction:.0%}",
        ]
        if self.engine_stats is not None:
            lines.append(f"simulation engine       : {self.engine_stats.summary()}")
        if self.live_stats is not None:
            lines.append(f"live runtime            : {self.live_stats.summary()}")
        if self.resilience is not None:
            lines.append(f"resilience              : {self.resilience.summary()}")
        if self.localization is not None:
            top = self.localization.top(3)
            lines.append("most-suspect clusters   :")
            for cluster in top:
                members = ", ".join(str(asn) for asn in sorted(cluster.members)[:6])
                suffix = ", …" if cluster.size > 6 else ""
                lines.append(
                    f"  volume={cluster.estimated_volume:8.3f}"
                    f"  size={cluster.size:3d}  [{members}{suffix}]"
                )
            if self.placement is not None:
                quality = self.localization.evaluate_against(self.placement)
                lines.append(
                    f"localization quality    : recall={quality.recall:.0%} "
                    f"precision={quality.precision:.0%} "
                    f"({quality.sources_found}/{quality.true_sources} sources in "
                    f"{quality.suspect_set_size} suspect ASes)"
                )
        return "\n".join(lines)


class SpoofTracker:
    """The paper's system: schedule, measure, cluster, attribute.

    Args:
        testbed: a wired testbed from :func:`build_testbed`.
        schedule_params: announcement-generation knobs (§IV-a defaults).
        engine: simulation engine to deploy configurations through.  By
            default a caching engine is built over the testbed's
            simulator.
        workers: must be 1; simulation always runs in-process.
        injector: optional :class:`~repro.faults.injection.FaultInjector`
            driving a chaos run; threaded into the measurement campaign
            and the ground-truth catchments.
        obs: optional :class:`~repro.obs.Observability` bundle; when
            armed, the run emits one span per pipeline phase (schedule,
            simulate, measure, cluster, attribute) and folds engine /
            campaign / fault counters into the bundle's registry.
    """

    def __init__(
        self,
        testbed: Testbed,
        schedule_params: Optional[ScheduleParams] = None,
        engine: Optional[SimulationEngine] = None,
        workers: int = 1,
        injector: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        require_serial(workers)
        self.testbed = testbed
        self.obs = obs if obs is not None else Observability()
        self.schedule_params = schedule_params or ScheduleParams()
        with self.obs.phase("schedule") as span:
            self.schedule: List[AnnouncementConfig] = generate_schedule(
                testbed.origin, testbed.graph, self.schedule_params
            )
            if span is not None:
                span.set("configs", len(self.schedule))
        self.engine = engine or SimulationEngine(
            testbed.simulator,
            tracer=self.obs.tracer,
        )
        self.injector = injector

    @classmethod
    def from_testbed(
        cls, testbed: Testbed, schedule_params: Optional[ScheduleParams] = None
    ) -> "SpoofTracker":
        """Alias constructor used throughout the examples."""
        return cls(testbed, schedule_params)

    # ------------------------------------------------------------------

    def run(
        self,
        max_configs: Optional[int] = None,
        placement: Optional[SourcePlacement] = None,
        measured: bool = False,
        split_threshold: Optional[int] = None,
        split_budget: int = 30,
        strategy: Optional[str] = None,
    ) -> TrackerReport:
        """Deploy the schedule and build the report.

        Args:
            max_configs: deploy only the first N configurations (the full
                paper schedule is 705 and takes a while on big topologies).
            placement: ground-truth spoofing sources; when given, per-link
                volumes are observed every configuration and attributed to
                the final clusters.
            measured: measure catchments with feeds and traceroutes
                (slower, noisy) instead of reading them off the simulator.
            split_threshold: when set (ground-truth runs only), run the
                §V-B large-cluster splitter afterwards, deploying targeted
                distant-poison configurations against clusters larger
                than the threshold.
            split_budget: extra configurations the splitter may deploy.
            strategy: registry name of a traceback strategy
                (:func:`repro.strategy.available_strategies`) to plan the
                deployment order from the measured catchments, §V-C
                pre-attack style; the strategy may stop short of the full
                schedule once nothing more can split.  None (or any
                strategy that deploys in schedule order, like
                ``"schedule"``) keeps the historical schedule-order run
                untouched.

        Raises:
            SchedulingError: if ``max_configs`` is below 1.
            ReproError: if ``split_threshold`` is combined with ``measured``.
        """
        if max_configs is not None and max_configs < 1:
            raise SchedulingError(
                f"max_configs must be at least 1, got {max_configs}"
            )
        if measured and split_threshold is not None:
            raise ReproError(
                "split_threshold needs ground-truth catchments; it cannot "
                "be combined with measured=True"
            )
        limit = len(self.schedule) if max_configs is None else max_configs
        configs = self.schedule[:limit]
        if not configs:
            raise ReproError("empty schedule")

        injector = self.injector
        obs = self.obs
        registry = obs.registry
        stats_before = self.engine.stats.copy()
        with obs.phase("simulate", configs=len(configs)) as span:
            with obs.capture():
                outcomes: List[RoutingOutcome] = self.engine.simulate_many(
                    configs
                )
            if span is not None:
                delta = self.engine.stats.since(stats_before)
                span.set("configs_simulated", delta.configs_simulated)
                span.set("cache_hits", delta.cache_hits)

        with obs.phase(
            "measure", mode="measured" if measured else "ground-truth"
        ) as span:
            with obs.capture():
                evidence = Evidence.build(
                    configs,
                    outcomes,
                    campaign=self.testbed.campaign if measured else None,
                    injector=injector,
                    registry=registry,
                    bus=obs.bus,
                )
            if span is not None:
                span.set("universe", len(evidence.universe))
                span.set("steps", len(evidence.steps))

        strategy_name = strategy
        if strategy_name is not None:
            from ..strategy import make_strategy, run_strategy, strategy_class

            if strategy_class(strategy_name).deploys_in_schedule_order:
                # The plan *is* the schedule — skip the planning pass so
                # the default path stays byte-for-byte the historical run.
                strategy_name = None
            else:
                with obs.phase("plan", strategy=strategy_name) as span:
                    seed = (
                        self.testbed.spec.seed
                        if self.testbed.spec is not None
                        else 0
                    )
                    plan = run_strategy(
                        make_strategy(strategy_name, seed=seed),
                        sorted(evidence.universe),
                        evidence.planning_maps(),
                        schedule=configs,
                    )
                    evidence = evidence.reordered(plan.order)
                    if span is not None:
                        span.set("planned", len(plan.order))
                        span.set("stop", plan.stop_reason)

        universe = evidence.universe
        with obs.phase("cluster") as span:
            state = ClusterState(evidence.columns)
            steps: List[StepStats] = []
            for step in evidence.steps:
                state.refine_with_catchments(
                    step.catchments, degraded_links=step.degraded
                )
                steps.append(
                    StepStats(
                        config_label=step.config.label or step.config.describe(),
                        phase=step.config.phase,
                        num_clusters=state.num_clusters(),
                        mean_cluster_size=state.mean_size(),
                        p90_cluster_size=state.size_percentile(90.0),
                    )
                )
            split_report = None
            if split_threshold is not None:
                from .refinement import LargeClusterSplitter

                splitter = LargeClusterSplitter(
                    self.testbed.simulator,
                    self.testbed.origin,
                    threshold=split_threshold,
                    engine=self.engine,
                )
                split_report = splitter.split(state, max_configs=split_budget)
                evidence = evidence.extended(
                    split_report.configs_deployed, split_report.outcomes
                )
                # The splitter refines ``state`` in place; per-config cluster
                # statistics come from its snapshots, taken right after each
                # deployed configuration (recomputing them here would just
                # repeat the final state for every step).
                for config, snapshot in zip(
                    split_report.configs_deployed, split_report.snapshots
                ):
                    steps.append(
                        StepStats(
                            config_label=config.label or config.describe(),
                            phase="split",
                            num_clusters=snapshot.num_clusters,
                            mean_cluster_size=snapshot.mean_cluster_size,
                            p90_cluster_size=snapshot.p90_cluster_size,
                        )
                    )
            clusters = state.clusters()
            if span is not None:
                span.set("clusters", len(clusters))
                span.set("steps", len(steps))

        monitor = InvariantMonitor() if injector is not None else None

        localization = None
        with obs.phase("attribute", skipped=placement is None) as span:
            if placement is not None:
                volume_history = [
                    link_volumes(placement, step.outcome.catchments)
                    for step in evidence.steps
                ]
                if monitor is not None:
                    for volumes in volume_history:
                        monitor.check_volume_conservation(
                            volumes.offered,
                            volumes.attributed,
                            volumes.unattributed,
                        )
                loc_catchments, loc_volumes = evidence.nnls_inputs(
                    volume_history
                )
                localizer = SpoofLocalizer(clusters, loc_catchments)
                with obs.capture():
                    localization = localizer.localize(loc_volumes)
                if span is not None:
                    span.set("volume_rows", len(loc_volumes))

        resilience = None
        if injector is not None:
            assert monitor is not None
            monitor.check_partition_coverage(universe, clusters)
            monitor.check_monotone_refinement(
                [step.num_clusters for step in steps]
            )
            resilience = build_resilience_report(
                injector,
                monitor=monitor,
                degraded_configs=evidence.degraded_steps,
            )

        if registry is not None:
            record_engine_stats(
                registry, self.engine.stats.since(stats_before)
            )
            if injector is not None:
                record_fault_log(registry, injector.log.as_dict())
            registry.counter(
                "repro_pipeline_configs_deployed_total",
                help="configurations deployed (schedule + splitter)",
            ).inc(len(steps))
            registry.counter(
                "repro_pipeline_sources_total",
                help="source ASes analyzed",
            ).inc(len(universe))
            registry.counter(
                "repro_pipeline_clusters_total",
                help="final clusters in the partition",
            ).inc(len(clusters))
            registry.counter(
                "repro_pipeline_degraded_steps_total",
                help="steps with partial (degraded) catchments",
            ).inc(evidence.degraded_steps)

        if obs.bus is not None:
            obs.bus.publish(
                "pipeline",
                steps=len(steps),
                degraded_steps=evidence.degraded_steps,
                clusters=len(clusters),
                sources=len(universe),
                localized=localization is not None,
            )

        return TrackerReport(
            universe=universe,
            steps=steps,
            clusters=clusters,
            catchment_history=evidence.maps,
            localization=localization,
            placement=placement,
            measured=measured,
            split_report=split_report,
            engine_stats=self.engine.stats.since(stats_before),
            resilience=resilience,
            strategy=strategy_name,
        )
