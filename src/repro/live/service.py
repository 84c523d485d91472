"""The online traceback runtime and its attack-replay driver.

:class:`LiveTracebackService` ties the live subsystem together: a
:class:`~repro.live.events.SimClock` paces observation windows, a
:class:`~repro.live.ingest.BoundedIngestQueue` absorbs generated spoofed
traffic, a :class:`~repro.live.attributor.LiveAttributor` refines clusters
and re-solves volumes every window, and an
:class:`~repro.live.controller.AdaptiveController` decides which
configuration to announce next and when more announcements cannot help.

Everything is driven by a :class:`ReplayScenario` — a frozen, fully
seeded description of one synthetic attack (source placement, traffic
rate, queue limits, scheduled route-churn events, checkpoint cadence) —
so a replay is deterministic end to end: the same scenario produces the
same window-by-window statistics and the same final attribution on any
machine, and a run killed at a checkpoint resumes to the identical final
report.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..bgp.simulator import RoutingOutcome, RoutingSimulator
from ..core.configgen import ScheduleParams, generate_schedule
from ..core.engine import EngineStats, SimulationEngine, require_serial
from ..core.evidence import Evidence
from ..core.localization import LocalizationResult
from ..core.pipeline import StepStats, Testbed, TestbedSpec, TrackerReport
from ..core.staleness import churned_policy, misplaced_fraction
from ..core.timeline import CampaignTimeline
from ..errors import LiveServiceError
from ..faults.health import (
    InvariantMonitor,
    ResilienceReport,
    build_resilience_report,
)
from ..faults.injection import FaultInjector
from ..faults.plan import FaultPlan
from ..measurement.traceroute import TracerouteParams
from ..obs import (
    Observability,
    RunManifest,
    record_engine_stats,
    record_fault_log,
)
from ..strategy import strategy_class
from ..spoof.sources import (
    PLACEMENT_DISTRIBUTIONS,
    SourcePlacement,
    make_placement,
)
from ..spoof.traffic import (
    SpoofedTrafficGenerator,
    link_volumes,
    volumes_from_packets,
)
from ..topology.generator import TopologyParams
from ..types import ASN, Catchment, LinkId
from .attributor import LiveAttributor
from .checkpoint import CHECKPOINT_VERSION, save_checkpoint
from .controller import AdaptiveController, ControllerPolicy
from .events import PacketBatch, SimClock
from .ingest import BoundedIngestQueue, IngestStats

#: Churn ordinals of injected storms start here, past any scheduled
#: event's: a storm at window ``w`` has ordinal ``_STORM_ORDINALS + w``.
_STORM_ORDINALS = 10_000


@dataclass(frozen=True)
class ReplayScenario:
    """Fully seeded description of one synthetic attack replay.

    Attributes:
        seed: drives source placement and packet-level traffic.  The
            testbed has its own seed (in :class:`TestbedSpec`).
        distribution: spoofing-source placement distribution.
        num_sources: number of spoofing sources to place.
        max_configs: truncate the announcement schedule to this many
            configurations (None = full schedule).
        window_minutes: honeypot counter-read interval; the dwell model
            decides how many windows each configuration affords.
        volume_per_window: spoofed volume the sources originate per
            window (noiseless volume mode).
        batches_per_window: how many :class:`PacketBatch` es the producer
            offers per window (stresses the bounded queue).
        queue_capacity: ingestion queue bound.
        drop_policy: ``"newest"`` or ``"oldest"`` (see
            :class:`~repro.live.ingest.BoundedIngestQueue`).
        strategy: built-in name of the traceback strategy the controller
            consults (default the paper's ``"greedy"``;
            ``"schedule"`` deploys in schedule order, the batch
            pipeline's behaviour; see
            :func:`repro.strategy.available_strategies`).  The
            strategy's internal randomness is seeded from ``seed``.
        min_configs: never short-circuit before this many configurations.
        stop_entropy: short-circuit once attribution entropy (bits) drops
            to this (None = disabled).
        stop_volume_share: short-circuit once a singleton cluster holds
            this share of estimated volume (None = disabled).
        churn_events: ``(window_index, drift)`` pairs, sorted by window —
            at each, the live Internet drifts from the measurement-time
            policy by the given fraction.
        churn_remeasure_threshold: misplaced-source fraction above which
            churn triggers remeasurement of every catchment map.
        checkpoint_every: checkpoint each N windows (0 = never).
        checkpoint_path: where periodic checkpoints are written.
        packets_per_window: >0 switches to packet-sampled traffic with
            this many packets per window (noisy mode; volumes are then
            byte counts and conservation is per delivered packet).
    """

    seed: int = 0
    distribution: str = "pareto"
    num_sources: int = 40
    max_configs: Optional[int] = 12
    window_minutes: float = 20.0
    volume_per_window: float = 1.0
    batches_per_window: int = 1
    queue_capacity: int = 64
    drop_policy: str = "newest"
    strategy: str = "greedy"
    min_configs: int = 3
    stop_entropy: Optional[float] = None
    stop_volume_share: Optional[float] = None
    churn_events: Tuple[Tuple[int, float], ...] = ()
    churn_remeasure_threshold: float = 0.02
    checkpoint_every: int = 0
    checkpoint_path: str = ""
    packets_per_window: int = 0

    def __post_init__(self) -> None:
        if self.distribution not in PLACEMENT_DISTRIBUTIONS:
            raise LiveServiceError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {sorted(PLACEMENT_DISTRIBUTIONS)}"
            )
        if self.num_sources < 1:
            raise LiveServiceError("need at least one spoofing source")
        if self.max_configs is not None and self.max_configs < 1:
            raise LiveServiceError("max_configs must be at least 1")
        if self.window_minutes <= 0:
            raise LiveServiceError("window length must be positive")
        if self.volume_per_window <= 0:
            raise LiveServiceError("per-window volume must be positive")
        if self.batches_per_window < 1:
            raise LiveServiceError("need at least one batch per window")
        if self.checkpoint_every < 0 or self.packets_per_window < 0:
            raise LiveServiceError("counts cannot be negative")
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise LiveServiceError("periodic checkpoints need a path")
        # Fail fast on unknown strategy names (checkpoints embed them).
        strategy_class(self.strategy)
        last_window = -1
        for entry in self.churn_events:
            window, drift = entry
            if window <= last_window:
                raise LiveServiceError(
                    "churn events must be sorted by strictly increasing window"
                )
            if not 0.0 <= drift <= 1.0:
                raise LiveServiceError("churn drift must be in [0, 1]")
            last_window = window


@dataclass(frozen=True)
class WindowStats:
    """Runtime statistics emitted after every observation window.

    Volume counters are cumulative since the start of the replay, so any
    single snapshot tells the whole backpressure story; cluster counters
    describe the rolling attribution *after* this window's evidence.
    """

    window_index: int
    clock_minutes: float
    config_label: str
    offered_volume: float
    dropped_volume: float
    unattributed_volume: float
    num_clusters: int
    mean_cluster_size: float
    entropy: float


@dataclass(frozen=True)
class LiveRunStats:
    """Whole-run runtime statistics, attachable to a batch report."""

    windows: int
    configs_consumed: int
    dwell_minutes: float
    remeasurements: int
    offered_volume: float
    dropped_volume: float
    dropped_batches: int
    unattributed_volume: float
    max_queue_depth: int
    final_entropy: float
    stop_reason: str

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"{self.windows} windows / {self.configs_consumed} configs "
            f"({self.dwell_minutes:.0f} min dwell, "
            f"{self.remeasurements} remeasurements), dropped "
            f"{self.dropped_volume:.3f}/{self.offered_volume:.3f} volume "
            f"(peak queue {self.max_queue_depth}), "
            f"entropy {self.final_entropy:.2f} bits, "
            f"stopped: {self.stop_reason}"
        )


@dataclass
class LiveReport:
    """Everything a finished (or checkpointed) replay produced."""

    scenario: ReplayScenario
    universe: FrozenSet[ASN]
    steps: List[StepStats]
    clusters: List[FrozenSet[ASN]]
    catchment_history: List[Dict[LinkId, Catchment]]
    windows: List[WindowStats]
    ingest: IngestStats
    run_stats: LiveRunStats
    localization: Optional[LocalizationResult] = None
    placement: Optional[SourcePlacement] = None
    engine_stats: Optional[EngineStats] = None
    resilience: Optional[ResilienceReport] = None
    manifest: Optional[RunManifest] = None

    def to_tracker_report(self) -> TrackerReport:
        """Project onto the batch pipeline's report type."""
        return TrackerReport(
            universe=self.universe,
            steps=list(self.steps),
            clusters=list(self.clusters),
            catchment_history=list(self.catchment_history),
            localization=self.localization,
            placement=self.placement,
            measured=False,
            engine_stats=self.engine_stats,
            live_stats=self.run_stats,
            resilience=self.resilience,
            manifest=self.manifest,
        )

    def summary(self) -> str:
        """Multi-line human-readable report (batch format + live stats)."""
        return self.to_tracker_report().summary()


def attribution_digest(report: Optional[LiveReport]) -> str:
    """SHA-256 over the canonical final attribution of one replay.

    Covers cluster memberships, estimated volumes (rounded to 1e-9, the
    live-vs-batch equivalence tolerance), the NNLS residual, and the
    stop reason — the byte-determinism witness the restart suites
    compare across kill/resume and across interpreter hash seeds.
    """
    if report is None:
        return ""
    localization = report.localization
    ranked = (
        [
            {
                "members": sorted(cluster.members),
                "volume": round(cluster.estimated_volume, 9),
            }
            for cluster in localization.ranked
        ]
        if localization is not None
        else []
    )
    canonical = json.dumps(
        {
            "ranked": ranked,
            "residual": round(localization.residual, 9)
            if localization is not None
            else None,
            "stop_reason": report.run_stats.stop_reason,
            "windows": report.run_stats.windows,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class LiveTracebackService:
    """Event-driven online attribution over a synthetic attack replay.

    Args:
        scenario: the attack replay to drive.
        spec: testbed recipe (defaults to a spec seeded from the
            scenario); required for checkpointing.
        testbed: pre-built testbed to reuse (must carry ``spec`` for
            checkpointing; defaults to ``spec.build()``).
        workers: must be 1; simulation always runs in-process.
        timeline: dwell-cost model (defaults to the paper's).
        injector: optional chaos hook driving volume-noise bursts,
            route-churn storms and checkpoint corruption; the fault plan
            travels inside checkpoints so a resumed chaos run stays on
            plan.
        obs: optional :class:`~repro.obs.Observability` bundle — arms a
            "premeasure" span, per-window latency histograms, and live
            runtime counters (windows, selections, remeasurements,
            dropped batches).
    """

    def __init__(
        self,
        scenario: Optional[ReplayScenario] = None,
        spec: Optional[TestbedSpec] = None,
        testbed: Optional[Testbed] = None,
        workers: int = 1,
        timeline: Optional[CampaignTimeline] = None,
        injector: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        require_serial(workers)
        self.scenario = scenario or ReplayScenario()
        self.injector = injector
        self.obs = obs if obs is not None else Observability()
        if testbed is not None:
            self.testbed = testbed
            self.spec = testbed.spec if spec is None else spec
        else:
            self.spec = spec or TestbedSpec(seed=self.scenario.seed)
            self.testbed = self.spec.build()
        self.timeline = timeline or CampaignTimeline()

        schedule = generate_schedule(
            self.testbed.origin, self.testbed.graph, ScheduleParams()
        )
        if self.scenario.max_configs is not None:
            schedule = schedule[: self.scenario.max_configs]
        self.schedule = schedule
        # Built before the premeasure so a bad queue or policy knob fails
        # before the expensive simulation runs.
        self.queue = BoundedIngestQueue(
            self.scenario.queue_capacity, self.scenario.drop_policy
        )
        policy = ControllerPolicy(
            strategy=self.scenario.strategy,
            strategy_seed=self.scenario.seed,
            min_configs=min(self.scenario.min_configs, len(self.schedule)),
            stop_entropy=self.scenario.stop_entropy,
            stop_volume_share=self.scenario.stop_volume_share,
            churn_remeasure_threshold=self.scenario.churn_remeasure_threshold,
        )
        self.engine = SimulationEngine(
            self.testbed.simulator,
            tracer=self.obs.tracer,
        )
        # Pre-attack measurement: catchments of every scheduled
        # configuration, streamed through the engine in schedule order.
        with self.obs.phase("premeasure", configs=len(self.schedule)) as span:
            with self.obs.capture():
                stale: List[RoutingOutcome] = list(
                    self.engine.iter_simulate(self.schedule)
                )
                # What the controller's current maps were derived from;
                # rebuilt wholesale on remeasurement.
                self.evidence = Evidence.build(
                    self.schedule, stale, registry=self.obs.registry,
                    bus=self.obs.bus,
                )
            if span is not None:
                span.set(
                    "configs_simulated", self.engine.stats.configs_simulated
                )
        # Ground truth the traffic is generated against; diverges from
        # the maps when churn strikes.
        self._truth_outcomes: List[RoutingOutcome] = stale
        self.universe = self.evidence.universe

        candidates = sorted(
            self.testbed.topology.stubs or self.testbed.graph.ases
        )
        self.placement = make_placement(
            self.scenario.distribution,
            candidates,
            self.scenario.num_sources,
            random.Random(self.scenario.seed + 1),
        )

        self.clock = SimClock()
        self.attributor = LiveAttributor(self.universe)
        self.controller = AdaptiveController(
            self.schedule,
            self.evidence.planning_maps(),
            self.timeline,
            policy,
            registry=self.obs.registry,
            bus=self.obs.bus,
        )

        self.window_stats: List[WindowStats] = []
        self.steps: List[StepStats] = []
        self.deployed: List[int] = []
        self.churn_log: List[Dict] = []
        self.unattributed_volume = 0.0
        self.window_index = 0
        self.stop_reason = ""
        self._active_index: Optional[int] = None
        self._windows_left = 0
        self._churn_cursor = 0
        self._finished = False
        self._checkpoint_ordinal = 0
        self.checkpoint_corruptions = 0
        self.restored_via_rollback = False
        self._metrics_exported = False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the service's simulation engine."""
        self.engine.close()

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the replay reached a stop condition."""
        return self._finished

    def step(
        self, on_window: Optional[Callable[[WindowStats], None]] = None
    ) -> bool:
        """Advance the replay by one scheduling unit; True while unfinished.

        A unit is either one configuration activation, one observation
        window, or the trailing dwell slack of a configuration.  Calling
        ``step()`` until it returns False is exactly :meth:`run`, so a
        caller may stop between any two units (a kill) and resume from
        the last checkpoint to the same result.
        """
        if self._finished:
            return False
        if self._active_index is None:
            reason = self.controller.should_stop(self.attributor)
            if reason is not None:
                self.stop_reason = reason
                self._finished = True
                return False
            index = self.controller.select_next(self.attributor)
            if index is None:
                self.stop_reason = "schedule exhausted"
                self._finished = True
                return False
            self._activate(index)
            return True
        if self._windows_left > 0:
            self._run_window(on_window)
            return True
        # Dwell not covered by observation windows (convergence wait,
        # probing slack) still passes on the clock.
        windows = self.timeline.windows_per_config(
            self.scenario.window_minutes
        )
        self.clock.advance(
            max(
                0.0,
                self.timeline.minutes_per_config
                - windows * self.scenario.window_minutes,
            )
        )
        self._active_index = None
        return True

    def run(
        self, on_window: Optional[Callable[[WindowStats], None]] = None
    ) -> LiveReport:
        """Drive the replay to completion (idempotent once finished).

        Args:
            on_window: called with each window's :class:`WindowStats` as
                it is emitted (rolling progress for CLIs).
        """
        while self.step(on_window):
            pass
        return self.report()

    def _activate(self, index: int) -> None:
        config = self.schedule[index]
        step = self.evidence.steps[index]
        self.attributor.apply_config(step.catchments, step.degraded)
        self.deployed.append(index)
        self._active_index = index
        self._windows_left = self.timeline.windows_per_config(
            self.scenario.window_minutes
        )
        state = self.attributor.state
        self.steps.append(
            StepStats(
                config_label=config.label or config.describe(),
                phase=config.phase,
                num_clusters=state.num_clusters(),
                mean_cluster_size=state.mean_size(),
                p90_cluster_size=state.size_percentile(90.0),
            )
        )

    def _run_window(
        self, on_window: Optional[Callable[[WindowStats], None]] = None
    ) -> None:
        scenario = self.scenario
        index = self._active_index
        if index is None:
            raise LiveServiceError("window ran without an active configuration")
        window_start = time.perf_counter()

        # Scheduled route churn strikes before this window's traffic.
        while (
            self._churn_cursor < len(scenario.churn_events)
            and scenario.churn_events[self._churn_cursor][0]
            <= self.window_index
        ):
            _, drift = scenario.churn_events[self._churn_cursor]
            self._apply_churn(drift, self._churn_cursor)
            self._churn_cursor += 1

        # Injected churn storms strike on top of the scheduled events.
        # The ordinal offset keeps their churn seeds disjoint from the
        # scheduled events'.
        if self.injector is not None:
            storm = self.injector.extra_churn(self.window_index)
            if storm is not None:
                self._apply_churn(storm, _STORM_ORDINALS + self.window_index)

        # Producer: the attack keeps sending whether or not we keep up.
        for batch_index in range(scenario.batches_per_window):
            self.queue.offer(self._make_batch(index, batch_index))

        # Consumer: drain whatever survived the bounded queue.
        drained = self.queue.drain()
        combined: Dict[LinkId, float] = {}
        offered = 0.0
        for batch in drained:
            for link, volume in batch.volumes.items():
                combined[link] = combined.get(link, 0.0) + volume
            offered += batch.offered_volume
            self.unattributed_volume += batch.unattributed
        if drained:
            self.attributor.observe(combined, offered)

        self.clock.advance(scenario.window_minutes)
        self._windows_left -= 1
        stats = self._window_snapshot(index)
        self.window_stats.append(stats)
        self.window_index += 1
        window_seconds = time.perf_counter() - window_start
        if self.obs.registry is not None:
            self.obs.registry.histogram(
                "repro_live_window_seconds",
                help="wall seconds to process one observation window",
            ).observe(window_seconds)
        if self.obs.bus is not None:
            self.obs.bus.publish(
                "window",
                duration_seconds=round(window_seconds, 6),
                **asdict(stats),
            )
        if on_window is not None:
            on_window(stats)

        if (
            scenario.checkpoint_every > 0
            and self.window_index % scenario.checkpoint_every == 0
        ):
            self.checkpoint(scenario.checkpoint_path)

    def _window_snapshot(self, index: int) -> WindowStats:
        config = self.schedule[index]
        ingest = self.queue.stats
        state = self.attributor.state
        return WindowStats(
            window_index=self.window_index,
            clock_minutes=self.clock.now,
            config_label=config.label or config.describe(),
            offered_volume=ingest.offered_volume,
            dropped_volume=ingest.dropped_volume,
            unattributed_volume=self.unattributed_volume,
            num_clusters=state.num_clusters(),
            mean_cluster_size=state.mean_size(),
            entropy=self.attributor.attribution_entropy(),
        )

    def _make_batch(self, index: int, batch_index: int) -> PacketBatch:
        scenario = self.scenario
        truth = self._truth_outcomes[index].catchments
        # Injected volume-noise bursts scale the whole batch — attributed
        # and unattributed alike — so conservation survives the noise.
        noise = 1.0
        if self.injector is not None:
            noise = self.injector.volume_noise_factor(
                self.window_index, batch_index
            )
        if scenario.packets_per_window > 0:
            per_batch = max(
                1, scenario.packets_per_window // scenario.batches_per_window
            )
            # Stateless seeding: the batch's traffic depends only on
            # (scenario seed, config, window, batch), never on how much
            # of the run already happened — checkpoints need no RNG state.
            rng = random.Random(
                f"{scenario.seed}|{index}|{self.window_index}|{batch_index}"
            )
            generator = SpoofedTrafficGenerator(self.placement, truth, rng)
            packets = list(generator.packets(per_batch))
            packet_volumes = volumes_from_packets(packets)
            if noise != 1.0:
                packet_volumes = {
                    link: volume * noise
                    for link, volume in packet_volumes.items()
                }
            return PacketBatch(
                timestamp=self.clock.now,
                volumes=packet_volumes,
                packets=len(packets),
            )
        volumes = link_volumes(
            self.placement,
            truth,
            scenario.volume_per_window / scenario.batches_per_window,
        )
        return PacketBatch(
            timestamp=self.clock.now,
            volumes={link: volume * noise for link, volume in volumes.items()},
            unattributed=volumes.unattributed * noise,
        )

    # ------------------------------------------------------------------
    # Churn and remeasurement
    # ------------------------------------------------------------------

    def _apply_churn(self, drift: float, ordinal: int) -> None:
        churn_seed = _churn_seed(self.scenario, ordinal)
        self._truth_outcomes = self._churned_outcomes(drift, churn_seed)

        probe = self._active_index if self._active_index is not None else 0
        misplaced = misplaced_fraction(
            self.evidence.steps[probe].outcome,
            self._truth_outcomes[probe],
            self.universe,
        )
        remeasured = False
        if self.controller.needs_remeasure(misplaced):
            self._remeasure()
            remeasured = True
        self.churn_log.append(
            {
                "window": self.window_index,
                "drift": drift,
                "churn_seed": churn_seed,
                "misplaced": misplaced,
                "remeasured": remeasured,
            }
        )
        if self.obs.registry is not None:
            self.obs.registry.counter(
                "repro_live_churn_events_total",
                help="route-churn strikes, by remeasurement decision",
                labels={"remeasured": "yes" if remeasured else "no"},
            ).inc()
        if self.obs.bus is not None:
            self.obs.bus.publish(
                "churn",
                window=self.window_index,
                drift=drift,
                misplaced=round(misplaced, 9),
                remeasured=remeasured,
            )

    def _churned_outcomes(
        self, drift: float, churn_seed: int
    ) -> List[RoutingOutcome]:
        """The schedule simulated on the Internet after a churn strike."""
        live_sim = RoutingSimulator(
            self.testbed.graph,
            self.testbed.origin,
            churned_policy(self.testbed.policy, drift, churn_seed),
        )
        return [live_sim.simulate(c) for c in self.schedule]

    def _remeasure(self) -> None:
        """Re-measure every catchment map against the drifted Internet."""
        self.evidence = self.evidence.rebuilt(
            self._truth_outcomes, bus=self.obs.bus, registry=self.obs.registry
        )
        self.controller.apply_remeasurement(
            self.evidence.planning_maps(), deployed_count=len(self.deployed)
        )
        steps = [self.evidence.steps[i] for i in self.deployed]
        self.attributor.rebuild_catchments(
            [step.catchments for step in steps],
            [step.degraded for step in steps],
        )
        # Remeasuring the deployed configurations costs their dwell again.
        self.clock.advance(
            len(self.deployed) * self.timeline.minutes_per_config
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def run_stats(self) -> LiveRunStats:
        """Current runtime counters as a frozen snapshot."""
        ingest = self.queue.stats
        return LiveRunStats(
            windows=self.window_index,
            configs_consumed=self.controller.configs_consumed,
            dwell_minutes=self.controller.dwell_minutes,
            remeasurements=self.controller.remeasurements,
            offered_volume=ingest.offered_volume,
            dropped_volume=ingest.dropped_volume,
            dropped_batches=ingest.dropped_batches,
            unattributed_volume=self.unattributed_volume,
            max_queue_depth=ingest.max_queue_depth,
            final_entropy=self.attributor.attribution_entropy(),
            stop_reason=self.stop_reason or "running",
        )

    def _resilience_report(self) -> Optional[ResilienceReport]:
        """Chaos accounting + invariant checks (None without an injector)."""
        if self.injector is None:
            return None
        monitor = InvariantMonitor()
        ingest = self.queue.stats
        monitor.check_volume_conservation(
            ingest.offered_volume,
            ingest.accepted_volume,
            ingest.dropped_volume,
        )
        monitor.check_partition_coverage(
            self.universe, self.attributor.clusters()
        )
        monitor.check_monotone_refinement(
            [step.num_clusters for step in self.steps]
        )
        return build_resilience_report(
            self.injector,
            monitor=monitor,
            checkpoint_corruptions=self.checkpoint_corruptions,
            checkpoint_rollbacks=1 if self.restored_via_rollback else 0,
        )

    def _export_metrics(self) -> None:
        """Fold whole-run live counters into the registry (once)."""
        registry = self.obs.registry
        if registry is None or self._metrics_exported:
            return
        self._metrics_exported = True
        stats = self.run_stats()
        registry.counter(
            "repro_live_windows_total",
            help="observation windows processed",
        ).inc(stats.windows)
        registry.counter(
            "repro_live_batches_dropped_total",
            help="packet batches dropped by the bounded ingest queue",
        ).inc(stats.dropped_batches)
        registry.gauge(
            "repro_live_dwell_minutes",
            help="total announcement dwell (simulated minutes)",
        ).set(stats.dwell_minutes)
        registry.gauge(
            "repro_live_peak_queue_depth",
            help="peak ingest queue depth",
        ).set(stats.max_queue_depth)
        registry.gauge(
            "repro_live_final_entropy_bits",
            help="final attribution entropy",
        ).set(stats.final_entropy)
        record_engine_stats(registry, self.engine.stats.copy())
        if self.injector is not None:
            record_fault_log(registry, self.injector.log.as_dict())

    def report(self) -> LiveReport:
        """Snapshot everything into a :class:`LiveReport`."""
        if self._finished:
            self._export_metrics()
        return LiveReport(
            scenario=self.scenario,
            universe=self.universe,
            steps=list(self.steps),
            clusters=self.attributor.clusters(),
            catchment_history=[
                obs.catchments for obs in self.attributor.observations
            ],
            windows=list(self.window_stats),
            ingest=self.queue.stats.copy(),
            run_stats=self.run_stats(),
            localization=self.attributor.attribution(force=True),
            placement=self.placement,
            engine_stats=self.engine.stats.copy(),
            resilience=self._resilience_report(),
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, path: str) -> str:
        """Persist the service's observed state to ``path`` (JSON).

        Under a fault plan with checkpoint corruption, the freshly
        written document may be deterministically mangled *after* the
        save — the ``<path>.1`` backup stays intact, which is exactly
        the torn-write scenario the loader's rollback covers.
        """
        ordinal = self._checkpoint_ordinal
        self._checkpoint_ordinal += 1
        result = save_checkpoint(self, path)
        corrupted = False
        if self.injector is not None and self.injector.should_corrupt_checkpoint(
            ordinal
        ):
            self.injector.corrupt_file(path, ordinal)
            self.checkpoint_corruptions += 1
            corrupted = True
        if self.obs.bus is not None:
            self.obs.bus.publish(
                "checkpoint",
                ordinal=ordinal,
                window=self.window_index,
                corrupted=corrupted,
            )
        return result

    def as_serializable(self) -> Dict:
        """JSON-safe dump of the observed state needed to resume this run.

        Catchment maps, clusters and the drifted ground truth are left
        out: :meth:`from_serializable` re-derives them from the spec and
        the churn log.
        """
        if self.spec is None:
            raise LiveServiceError(
                "cannot checkpoint a service built from a spec-less testbed"
            )
        return {
            "version": CHECKPOINT_VERSION,
            "spec": asdict(self.spec),
            "scenario": asdict(self.scenario),
            "fault_plan": (
                self.injector.plan.as_serializable()
                if self.injector is not None
                else None
            ),
            "fault_log": (
                self.injector.log.as_dict()
                if self.injector is not None
                else None
            ),
            "clock": self.clock.now,
            "controller": self.controller.as_serializable(),
            "attributor": self.attributor.as_serializable(),
            "ingest": {"stats": asdict(self.queue.stats)},
            "progress": {
                "window_index": self.window_index,
                "active_index": self._active_index,
                "windows_left": self._windows_left,
                "churn_cursor": self._churn_cursor,
                "finished": self._finished,
                "stop_reason": self.stop_reason,
                "deployed": list(self.deployed),
                "unattributed_volume": self.unattributed_volume,
                "steps": [asdict(step) for step in self.steps],
                "windows": [asdict(stats) for stats in self.window_stats],
                "churn_log": list(self.churn_log),
                "checkpoint_ordinal": self._checkpoint_ordinal,
                "checkpoint_corruptions": self.checkpoint_corruptions,
            },
        }

    @classmethod
    def from_serializable(
        cls,
        payload: Mapping,
        testbed: Optional[Testbed] = None,
    ) -> "LiveTracebackService":
        """Rebuild a service dumped by :meth:`as_serializable`.

        The testbed, schedule, and pre-attack catchments are re-derived
        deterministically from the spec; only observed state is restored
        from the payload.  The churn log then rebuilds the rest: the
        traffic's ground truth from its last entry, the evidence from
        its last remeasured entry, and the attributor's maps and
        partition from that evidence.  ``testbed`` is runtime
        configuration, not state: a pre-built testbed matching the
        payload's spec saves the rebuild.
        """
        spec = _spec_from_payload(payload["spec"])
        scenario = _scenario_from_payload(payload["scenario"])
        plan_payload = payload.get("fault_plan")
        injector = (
            FaultInjector(FaultPlan.from_serializable(plan_payload))
            if plan_payload is not None
            else None
        )
        if injector is not None:
            # Cumulative accounting: faults fired before the snapshot
            # stay counted in the resumed run's resilience report.
            for kind, count in (payload.get("fault_log") or {}).items():
                injector.log.record(str(kind), int(count))
        service = cls(
            scenario=scenario,
            spec=spec,
            testbed=testbed,
            injector=injector,
        )

        service.clock = SimClock(payload["clock"])
        service.controller.restore(payload["controller"])
        service.queue.stats = IngestStats(**payload["ingest"]["stats"])

        progress = payload["progress"]
        service.window_index = int(progress["window_index"])
        service._active_index = progress["active_index"]
        service._windows_left = int(progress["windows_left"])
        service._churn_cursor = int(progress["churn_cursor"])
        service._finished = bool(progress["finished"])
        service.stop_reason = progress["stop_reason"]
        service.deployed = list(progress["deployed"])
        service.unattributed_volume = float(progress["unattributed_volume"])
        service.steps = [StepStats(**step) for step in progress["steps"]]
        service.window_stats = [
            _window_from_payload(stats) for stats in progress["windows"]
        ]
        service.churn_log = _seeded_churn_log(progress["churn_log"], scenario)
        service._checkpoint_ordinal = int(
            progress.get("checkpoint_ordinal", 0)
        )
        service.checkpoint_corruptions = int(
            progress.get("checkpoint_corruptions", 0)
        )

        if service.churn_log:
            last = service.churn_log[-1]
            service._truth_outcomes = service._churned_outcomes(
                last["drift"], last["churn_seed"]
            )
        remeasured = [e for e in service.churn_log if e["remeasured"]]
        if remeasured:
            outcomes = (
                service._truth_outcomes
                if remeasured[-1] is service.churn_log[-1]
                else service._churned_outcomes(
                    remeasured[-1]["drift"], remeasured[-1]["churn_seed"]
                )
            )
            service.evidence = service.evidence.rebuilt(
                outcomes, bus=service.obs.bus, registry=service.obs.registry
            )
            service.controller.catchment_maps = (
                service.evidence.planning_maps()
            )
        steps = [service.evidence.steps[i] for i in service.deployed]
        service.attributor = LiveAttributor.from_serializable(
            payload["attributor"],
            service.universe,
            [step.catchments for step in steps],
            [step.degraded for step in steps],
        )
        return service


def _churn_seed(scenario: ReplayScenario, ordinal: int) -> int:
    """Seed of the churn strike with ``ordinal`` (scheduled event ``k``
    has ordinal ``k``; a storm's is offset by ``_STORM_ORDINALS``)."""
    return scenario.seed + 101 + ordinal


def _seeded_churn_log(
    entries: Sequence[Mapping], scenario: ReplayScenario
) -> List[Dict]:
    """``entries`` with every strike's ``churn_seed`` filled in.

    Checkpoint versions 1 and 2 logged no seeds.  An entry is the next
    scheduled event exactly when that event's window is at most the
    entry's (scheduled events strike before a window's storm); any
    other entry is a storm at its window.
    """
    log: List[Dict] = []
    cursor = 0
    events = scenario.churn_events
    for entry in entries:
        entry = dict(entry)
        if cursor < len(events) and events[cursor][0] <= entry["window"]:
            ordinal = cursor
            cursor += 1
        else:
            ordinal = _STORM_ORDINALS + int(entry["window"])
        entry.setdefault("churn_seed", _churn_seed(scenario, ordinal))
        log.append(entry)
    return log


def _spec_from_payload(payload: Mapping) -> TestbedSpec:
    data = dict(payload)
    if data.get("topology_params"):
        params = dict(data["topology_params"])
        for key in ("transit_provider_choices", "stub_provider_choices"):
            if key in params:
                params[key] = tuple(params[key])
        data["topology_params"] = TopologyParams(**params)
    if data.get("traceroute_params"):
        data["traceroute_params"] = TracerouteParams(
            **data["traceroute_params"]
        )
    return TestbedSpec(**data)


def _window_from_payload(payload: Mapping) -> WindowStats:
    # Versions 1-3 also logged the (always zero) post-drain queue depth
    # and the decaying window's concentration; versions 1-4 also logged
    # the schedule index, configs consumed and accepted volume, which
    # the ``select`` event and the run totals carry.
    data = dict(payload)
    for key in (
        "queue_depth", "recent_concentration",
        "schedule_index", "configs_consumed", "accepted_volume",
    ):
        data.pop(key, None)
    return WindowStats(**data)


def _scenario_from_payload(payload: Mapping) -> ReplayScenario:
    data = dict(payload)
    # Checkpoints written while the NNLS re-solve stride was a scenario
    # field carry it; a resumed service re-solves on every change.
    data.pop("nnls_stride", None)
    # Versions 1-3 carry the half-life of the retired decaying window.
    data.pop("half_life_windows", None)
    # Versions 1-4 could name ``volume-greedy``, which was ``greedy``
    # with no static estimate on the live path.
    if data.get("strategy") == "volume-greedy":
        data["strategy"] = "greedy"
    # Checkpoints written while schedule order was an ``adaptive: false``
    # switch store the strategy the switch bypassed; only the paper's
    # greedy (whose convergence check is the schedule strategy's)
    # resumes unchanged as ``"schedule"``.
    if not data.pop("adaptive", True):
        bypassed = data.get("strategy", "greedy")
        if bypassed not in ("greedy", "schedule"):
            raise LiveServiceError(
                f"checkpoint deploys in schedule order (adaptive: false) "
                f"with strategy {bypassed!r}; only 'greedy' resumes as "
                f"'schedule'"
            )
        data["strategy"] = "schedule"
    data["churn_events"] = tuple(
        (int(window), float(drift)) for window, drift in data["churn_events"]
    )
    return ReplayScenario(**data)
