"""The fleet runtime: N concurrent attacks across M tenants, one process.

:class:`FleetRuntime` is the provider-side control plane the paper's
operational story implies: a transit provider runs BGP-steered traceback
for *many* customer origin networks at once, each possibly under several
simultaneous spoofed-traffic attacks.  The runtime

* consumes one merged, timestamped event stream (attack launches plus
  operator actions — see :mod:`repro.fleet.stream`) through a bounded
  front-end queue (asyncio driver) or directly (serial driver); both
  drivers apply the identical sequence and produce identical reports,
* routes each event to a per-attack :class:`~repro.fleet.shard.AttackShard`
  keyed by ``(tenant, prefix)``,
* interleaves shard work under the
  :class:`~repro.fleet.scheduler.FleetScheduler`'s weighted fair share
  (no shard starves, quotas hold, ``max_active`` admission bounds how
  many live services exist at once — pending launches queue in
  fair-share order, the fleet's backpressure),
* shares one :class:`~repro.core.engine.SimulationEngine` (LRU cache)
  per tenant across that tenant's shards, built lazily on first
  admission,
* contains shard crashes (scripted ``crash`` events or exceptions
  escaping a shard) and resumes from the shard's namespaced checkpoint,
* and keeps one per-tenant :class:`~repro.obs.slo.SloWatchdog` fed by
  the tenant's events off the shared bus, so breach counters carry the
  ``tenant`` label.

Determinism: shards share no mutable state (each has its own RNG-free
stateless seeding, queue, attributor, clock), so per-shard results are
invariant under interleaving — the fair-share order affects only *when*
a shard's windows run, never what they contain.  Event minutes are
barriers on simulated clocks, never wall time.  Hence the fleet digest
(hash over every shard's attribution and checkpoint digests) is a pure
function of the spec and event stream.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.engine import SimulationEngine
from ..errors import FleetError
from ..live.service import WindowStats
from ..obs import Observability
from ..obs.flight import FlightRecorder
from ..obs.slo import DEFAULT_SLOS, SloRule, SloWatchdog
from .obs import TaggedBus, TaggedRegistry, shard_observability
from .scheduler import FleetScheduler
from .shard import DONE, FAILED, PENDING, AttackShard, ShardReport
from .spec import AttackSpec, FleetSpec, ShardKey
from .stream import (
    CHECKPOINT,
    CRASH,
    DRAIN,
    EVICT,
    LAUNCH,
    FleetEvent,
    iter_stream,
    scripted_stream,
)

#: Contained-exception resumes per shard before the runtime gives up (a
#: deterministic bug would otherwise crash-loop forever).
DEFAULT_MAX_RESUMES = 3

#: Callback invoked after every completed shard window.
WindowCallback = Callable[[ShardKey, WindowStats], None]


def fleet_digest(reports: Sequence[ShardReport]) -> str:
    """SHA-256 over every shard's attribution + checkpoint digests.

    The one-line byte-determinism witness for a whole campaign: equal
    digests mean every shard attributed identically and persisted
    identical checkpoint bytes.
    """
    canonical = json.dumps(
        [
            {
                "tenant": report.tenant,
                "prefix": report.prefix,
                "attribution": report.attribution_digest,
                "checkpoint": report.checkpoint_digest,
            }
            for report in sorted(reports, key=lambda r: r.key)
        ],
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class FleetReport:
    """Final accounting for one fleet run."""

    shards: List[ShardReport]
    scheduler: Dict[str, object] = field(default_factory=dict)
    events_applied: int = 0
    events_missed: int = 0
    crashes: int = 0
    resumes: int = 0
    migrations: int = 0

    @property
    def digest(self) -> str:
        """The campaign-wide determinism witness."""
        return fleet_digest(self.shards)

    def by_tenant(self) -> Dict[str, List[ShardReport]]:
        grouped: Dict[str, List[ShardReport]] = {}
        for report in self.shards:
            grouped.setdefault(report.tenant, []).append(report)
        return grouped

    def as_dict(self) -> Dict[str, object]:
        return {
            "digest": self.digest,
            "events_applied": self.events_applied,
            "events_missed": self.events_missed,
            "crashes": self.crashes,
            "resumes": self.resumes,
            "migrations": self.migrations,
            "scheduler": self.scheduler,
            "shards": [report.as_dict() for report in self.shards],
        }


class FleetRuntime:
    """Drives a multi-tenant, multi-attack campaign to completion.

    Args:
        spec: the frozen campaign recipe.
        events: merged event stream to consume (default: the spec's
            canonical :func:`~repro.fleet.stream.scripted_stream` —
            every launch, no control events).
        obs: shared observability bundle; shards and engines run under
            tenant/attack-tagged views of it.
        checkpoint_dir: directory for per-shard namespaced checkpoints
            ("" disables persistence; crash recovery then restarts
            shards from scratch).
        auto_resume: resume failed shards immediately (both scripted
            crashes and contained exceptions), up to ``max_resumes``
            per shard.
        max_resumes: contained-crash resume budget per shard.
        slo_rules: per-tenant watchdog rules (default
            :data:`~repro.obs.slo.DEFAULT_SLOS`).
        injector_factory: builds one fault injector *per shard* (called
            with the :class:`~repro.fleet.spec.AttackSpec` at spawn; the
            runtime wires it to the shard's tagged bus).
            Per-shard injectors keep chaos draws independent of the
            fair-share interleaving; a single shared injector would
            entangle every shard's fault ordinals.
        flight_dir: directory for per-shard flight-recorder bundles
            ("" leaves flight recording off).  Each shard gets a
            :class:`~repro.obs.flight.FlightRecorder` riding the shared
            bus filtered to its own tenant/attack tags (its log records
            and fault firings included), dumping on crash, kill, and
            rollback.
        flight_capacity: ring size of each shard's recorder.
    """

    def __init__(
        self,
        spec: FleetSpec,
        events: Optional[Sequence[FleetEvent]] = None,
        obs: Optional[Observability] = None,
        checkpoint_dir: str = "",
        auto_resume: bool = True,
        max_resumes: int = DEFAULT_MAX_RESUMES,
        slo_rules: Sequence[SloRule] = DEFAULT_SLOS,
        injector_factory: Optional[Callable[[AttackSpec], object]] = None,
        flight_dir: str = "",
        flight_capacity: int = 256,
    ) -> None:
        self.spec = spec
        self.obs = obs if obs is not None else Observability()
        self.checkpoint_dir = checkpoint_dir
        self.auto_resume = auto_resume
        self.max_resumes = max_resumes
        self.injector_factory = injector_factory
        self.flight_dir = flight_dir
        self.flight_capacity = flight_capacity
        self.flights: Dict[ShardKey, "FlightRecorder"] = {}
        self._slo_rules = tuple(slo_rules)
        self.events: List[FleetEvent] = list(
            events if events is not None else scripted_stream(spec)
        )
        self.scheduler = FleetScheduler(
            quotas=spec.quota_weights(), max_active=spec.max_active
        )
        self.shards: Dict[ShardKey, AttackShard] = {}
        self._pending: List[ShardKey] = []
        self._testbeds: Dict[str, object] = {}
        self._engines: Dict[str, SimulationEngine] = {}
        self.watchdogs: Dict[str, SloWatchdog] = {}
        self.events_applied = 0
        self.missed_events: List[FleetEvent] = []
        self._closed = False
        if self.obs.bus is not None:
            self.obs.bus.attach(self._route_to_watchdog)

    # -- observability --------------------------------------------------

    def _route_to_watchdog(self, event) -> None:
        """Bus listener: feed tenant-labelled events to that tenant's
        watchdog (untagged events belong to no tenant)."""
        tenant = event.get("tenant")
        if not tenant:
            return
        watchdog = self.watchdogs.get(str(tenant))
        if watchdog is not None:
            watchdog.observe(event)

    def _ensure_watchdog(self, tenant: str) -> SloWatchdog:
        watchdog = self.watchdogs.get(tenant)
        if watchdog is None:
            registry = (
                TaggedRegistry(self.obs.registry, tenant=tenant)
                if self.obs.registry is not None
                else None
            )
            watchdog = SloWatchdog(self._slo_rules, registry=registry)
            self.watchdogs[tenant] = watchdog
        return watchdog

    def _publish(self, action: str, shard: AttackShard, **extra) -> None:
        if self.obs.bus is not None:
            self.obs.bus.publish(
                "fleet",
                action=action,
                tenant=shard.tenant,
                attack=shard.label,
                state=shard.state,
                clock_minutes=round(shard.clock_minutes, 6),
                **extra,
            )
        if self.obs.registry is not None:
            self.obs.registry.counter(
                "repro_fleet_actions_total",
                help="fleet lifecycle actions, by action and tenant",
                labels={"action": action, "tenant": shard.tenant},
            ).inc()

    # -- tenant resources -----------------------------------------------

    def _tenant_resources(self, shard: AttackShard):
        """The tenant's shared testbed + engine, built on first use."""
        tenant = shard.tenant
        if tenant not in self._testbeds:
            testbed = shard.attack.testbed.build()
            bus = (
                TaggedBus(self.obs.bus, tenant=tenant)
                if self.obs.bus is not None
                else None
            )
            engine = SimulationEngine(testbed.simulator, bus=bus)
            self._testbeds[tenant] = testbed
            self._engines[tenant] = engine
        return self._testbeds[tenant], self._engines[tenant]

    # -- shard lifecycle -------------------------------------------------

    def spawn(self, attack: AttackSpec) -> AttackShard:
        """Register a new shard; it queues for admission."""
        if attack.key in self.shards:
            raise FleetError(f"shard {attack.label} already exists")
        obs = shard_observability(self.obs, attack.tenant, attack.label)
        injector = (
            self.injector_factory(attack)
            if self.injector_factory is not None
            else None
        )
        if injector is not None:
            injector.bus = obs.bus
        flight = None
        if self.flight_dir:
            flight = FlightRecorder(
                name=attack.label,
                capacity=self.flight_capacity,
                directory=self.flight_dir,
                context={
                    "tenant": attack.tenant,
                    "shard": attack.label,
                    "seed": self.spec.seed,
                },
                tag_filter={"tenant": attack.tenant, "attack": attack.label},
            )
            flight.attach(self.obs.bus)
            self.flights[attack.key] = flight
        shard = AttackShard(
            attack,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.spec.checkpoint_every,
            obs=obs,
            injector=injector,
            flight=flight,
        )
        self.shards[attack.key] = shard
        self.scheduler.register(attack.key, attack.tenant)
        self._ensure_watchdog(attack.tenant)
        self._pending.append(attack.key)
        self._publish("spawn", shard)
        return shard

    def _shard(self, key: ShardKey) -> AttackShard:
        shard = self.shards.get(key)
        if shard is None:
            raise FleetError(f"no shard {key[0]}/{key[1]} in the fleet")
        return shard

    def crash(self, key: ShardKey) -> None:
        """Kill a shard's live service (its in-memory state is lost)."""
        shard = self._shard(key)
        shard.crash()
        self._publish("crash", shard)
        if self.auto_resume:
            self.resume(key)

    def resume(self, key: ShardKey) -> bool:
        """Recover a failed shard from its checkpoint (or from scratch)."""
        shard = self._shard(key)
        testbed, engine = self._tenant_resources(shard)
        from_checkpoint = shard.resume(testbed, engine)
        self._publish(
            "resume", shard, from_checkpoint=from_checkpoint
        )
        return from_checkpoint

    def drain(self, key: ShardKey) -> None:
        """Ask a shard to finish gracefully, keeping its evidence."""
        shard = self._shard(key)
        shard.drain()
        if key in self._pending:
            self._pending.remove(key)
        if shard.finished:
            self._retire(shard)
        self._publish("drain", shard)

    def evict(self, key: ShardKey) -> None:
        """Remove a shard immediately."""
        shard = self._shard(key)
        shard.evict()
        if key in self._pending:
            self._pending.remove(key)
        self._retire(shard)
        self._publish("evict", shard)

    def _retire(self, shard: AttackShard) -> None:
        """Drop a finished shard from scheduling (debt is retained)."""
        self.scheduler.unregister(shard.key)

    # -- stepping --------------------------------------------------------

    def _active_count(self) -> int:
        return sum(
            1 for shard in self.shards.values() if shard.service is not None
        )

    def _admit(self) -> None:
        """Admit pending shards in fair-share order while slots allow.

        Activation runs the shard's pre-measurement through the tenant's
        shared engine, so sibling admissions after the first are mostly
        LRU cache hits.
        """
        while self._pending and self.scheduler.can_admit(self._active_count()):
            key = self.scheduler.admission_order(self._pending)[0]
            self._pending.remove(key)
            shard = self.shards[key]
            testbed, engine = self._tenant_resources(shard)
            shard.activate(testbed, engine)
            self._publish("admit", shard)

    def _runnable(self) -> List[ShardKey]:
        return [key for key, shard in self.shards.items() if shard.runnable]

    def _step_once(self, on_window: Optional[WindowCallback] = None) -> bool:
        """One fair-share unit of fleet work; True while any remains."""
        self._admit()
        key = self.scheduler.next_key(self._runnable())
        if key is None:
            return bool(self._pending) and self._admissible()
        shard = self.shards[key]
        self.scheduler.record(key)
        callback = None
        if on_window is not None:
            callback = lambda stats: on_window(key, stats)  # noqa: E731
        more = shard.step(callback)
        if shard.state == FAILED:
            self._publish("contained_crash", shard, error=shard.error)
            if self.auto_resume and shard.resumes < self.max_resumes:
                self.resume(key)
            else:
                self._retire(shard)
        elif not more and shard.state == DONE:
            shard.finalize()
            self._retire(shard)
            self._publish("done", shard, stop_reason=shard.report().stop_reason)
        return True

    def _admissible(self) -> bool:
        return self.scheduler.can_admit(self._active_count())

    # -- event application ----------------------------------------------

    def _lagging(self, shard: AttackShard, minute: float) -> bool:
        """True while ``shard`` has not yet reached ``minute``.

        A pending shard's clock has not started, so it lags any positive
        minute until admission lets it run.
        """
        if shard.state == PENDING:
            return minute > 0.0
        return shard.runnable and shard.clock_minutes < minute

    def _behind(self, event: FleetEvent) -> List[ShardKey]:
        """Shards that must advance before ``event`` applies.

        A control event is a barrier on the *targeted* shard's simulated
        clock; a launch is a barrier on overall fleet progress (every
        live shard reaches the launch minute first).  Finished shards
        never hold an event back.
        """
        if event.action == LAUNCH:
            return [
                key
                for key, shard in self.shards.items()
                if self._lagging(shard, event.minute)
            ]
        shard = self.shards.get(event.key)
        if shard is not None and self._lagging(shard, event.minute):
            return [event.key]
        return []

    def _apply(self, event: FleetEvent) -> None:
        """Apply one stream event (missed targets are recorded, not
        fatal — an operator action on a finished shard is a no-op)."""
        try:
            if event.action == LAUNCH:
                self.spawn(event.attack)
            elif event.action == CRASH:
                self.crash(event.key)
            elif event.action == DRAIN:
                self.drain(event.key)
            elif event.action == EVICT:
                self.evict(event.key)
            elif event.action == CHECKPOINT:
                self._shard(event.key).force_checkpoint()
        except FleetError:
            self.missed_events.append(event)
            return
        self.events_applied += 1

    # -- drivers ---------------------------------------------------------

    def run(self, on_window: Optional[WindowCallback] = None) -> FleetReport:
        """Serial driver: consume the stream, drain every shard."""
        for event in iter_stream(self.events):
            while self._behind(event) and self._step_once(on_window):
                pass
            self._apply(event)
        while self._step_once(on_window):
            pass
        return self.report()

    async def run_async(
        self, on_window: Optional[WindowCallback] = None
    ) -> FleetReport:
        """Asyncio driver: a pump task feeds the merged stream through a
        bounded queue (backpressure: the pump blocks while the
        dispatcher is behind) and the dispatcher interleaves shard work
        between events, yielding to the loop after every unit.

        Applies the identical event/step sequence as :meth:`run`, so the
        resulting report — digests included — is byte-identical.
        """
        queue: "asyncio.Queue" = asyncio.Queue(self.spec.frontend_queue)

        async def pump() -> None:
            for event in iter_stream(self.events):
                await queue.put(event)
            await queue.put(None)

        pump_task = asyncio.ensure_future(pump())
        try:
            while True:
                event = await queue.get()
                if event is None:
                    break
                while self._behind(event) and self._step_once(on_window):
                    await asyncio.sleep(0)
                self._apply(event)
            while self._step_once(on_window):
                await asyncio.sleep(0)
        finally:
            await pump_task
        return self.report()

    # -- reporting / teardown -------------------------------------------

    def report(self) -> FleetReport:
        """Current (final, after a driver returns) fleet accounting."""
        reports = [
            self.shards[key].report() for key in sorted(self.shards)
        ]
        return FleetReport(
            shards=reports,
            scheduler=self.scheduler.snapshot(),
            events_applied=self.events_applied,
            events_missed=len(self.missed_events),
            crashes=sum(report.crashes for report in reports),
            resumes=sum(report.resumes for report in reports),
            migrations=sum(report.migrations for report in reports),
        )

    def tenants_summary(self) -> Dict[str, object]:
        """JSON-safe per-tenant rollup (the ``/tenants`` endpoint body)."""
        tenants: Dict[str, Dict[str, object]] = {}
        for key in sorted(self.shards):
            shard = self.shards[key]
            report = shard.report()
            entry = tenants.setdefault(
                shard.tenant,
                {
                    "weight": self.scheduler.weight(shard.tenant),
                    "debt": round(self.scheduler.tenant_debt(shard.tenant), 6),
                    "windows": 0,
                    "crashes": 0,
                    "resumes": 0,
                    "states": {},
                    "slo": None,
                    "attacks": [],
                },
            )
            entry["windows"] = int(entry["windows"]) + report.windows
            entry["crashes"] = int(entry["crashes"]) + report.crashes
            entry["resumes"] = int(entry["resumes"]) + report.resumes
            states = entry["states"]
            states[shard.state] = states.get(shard.state, 0) + 1
            entry["attacks"].append(report.as_dict())
        for tenant, watchdog in self.watchdogs.items():
            if tenant in tenants:
                tenants[tenant]["slo"] = watchdog.status()
        return {
            "tenants": tenants,
            "scheduler": self.scheduler.snapshot(),
            "pending": [list(key) for key in self._pending],
            "events_applied": self.events_applied,
            "events_missed": len(self.missed_events),
        }

    def close(self) -> None:
        """Tear down every shard and tenant engine (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.obs.bus is not None:
            # The bus is the caller's and may outlive this runtime; a
            # stale listener would double-count SLO breaches into
            # retired watchdogs.
            self.obs.bus.detach(self._route_to_watchdog)
        for flight in self.flights.values():
            flight.detach()
        for shard in self.shards.values():
            shard.finalize()
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()
        self._testbeds.clear()

    def __enter__(self) -> "FleetRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
