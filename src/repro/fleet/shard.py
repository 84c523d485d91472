"""One attack shard: a live traceback service plus fleet lifecycle.

An :class:`AttackShard` wraps one
:class:`~repro.live.service.LiveTracebackService` with everything the
fleet needs around it: a lifecycle state machine
(``pending → active → done`` with ``draining``/``failed``/``evicted``
excursions), a checkpoint path namespaced by the shard key so many
shards persist under one directory, crash containment (an exception
escaping the service marks the shard failed instead of taking the fleet
down — the :mod:`repro.faults` posture applied at shard granularity),
and deterministic resume: a failed shard restores from its last intact
checkpoint (rollback to rotated generations included) or, with no
checkpoint yet, restarts from scratch — either way replaying to the
byte-identical final attribution, because scenarios are stateless-seeded.

The shard does not schedule itself and does not own shared resources:
the runtime decides when :meth:`step` runs (fair share) and supplies the
tenant's shared testbed and engine at activation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..errors import FleetError
from ..live.checkpoint import load_checkpoint, shard_checkpoint_path
from ..live.service import LiveReport, LiveTracebackService, WindowStats
from ..obs import Observability
from .spec import AttackSpec, ShardKey

#: Lifecycle states.
PENDING = "pending"      # spawned, waiting for admission
ACTIVE = "active"        # holds a live service; schedulable
DRAINING = "draining"    # operator asked it to finish; schedulable
DONE = "done"            # replay reached a stop condition
FAILED = "failed"        # crashed; waiting for resume (or gave up)
EVICTED = "evicted"      # removed by the operator; terminal

#: States in which the scheduler may hand the shard work.
RUNNABLE_STATES = (ACTIVE, DRAINING)

#: States that count against the ``max_active`` admission bound.
LIVE_STATES = (ACTIVE, DRAINING, FAILED)

#: Terminal states.
FINISHED_STATES = (DONE, EVICTED)


def attribution_digest(report: Optional[LiveReport]) -> str:
    """SHA-256 over the canonical final attribution of one shard.

    Covers cluster memberships, estimated volumes (rounded to 1e-9, the
    live-vs-batch equivalence tolerance), the NNLS residual, and the
    stop reason — the byte-determinism witness the fleet suite compares
    across interleavings and kill/resume.
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


def checkpoint_digest(path: str) -> str:
    """SHA-256 of the shard's on-disk checkpoint ("" when absent)."""
    if not path or not os.path.exists(path):
        return ""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@dataclass
class ShardReport:
    """Final (or current) accounting for one shard."""

    tenant: str
    prefix: str
    state: str
    windows: int = 0
    configs_consumed: int = 0
    clock_minutes: float = 0.0
    stop_reason: str = ""
    entropy_bits: float = 0.0
    offered_volume: float = 0.0
    dropped_volume: float = 0.0
    crashes: int = 0
    resumes: int = 0
    migrations: int = 0
    error: str = ""
    top_cluster: List[int] = field(default_factory=list)
    top_volume: float = 0.0
    num_clusters: int = 0
    attribution_digest: str = ""
    checkpoint_digest: str = ""
    checkpoint_path: str = ""

    @property
    def key(self) -> ShardKey:
        return (self.tenant, self.prefix)

    @property
    def label(self) -> str:
        return f"{self.tenant}/{self.prefix}"

    def as_dict(self) -> Dict:
        """JSON-safe rendering (feeds ``/tenants`` and the CLI table)."""
        return {
            "tenant": self.tenant,
            "prefix": self.prefix,
            "state": self.state,
            "windows": self.windows,
            "configs_consumed": self.configs_consumed,
            "clock_minutes": round(self.clock_minutes, 6),
            "stop_reason": self.stop_reason,
            "entropy_bits": round(self.entropy_bits, 9),
            "offered_volume": round(self.offered_volume, 9),
            "dropped_volume": round(self.dropped_volume, 9),
            "crashes": self.crashes,
            "resumes": self.resumes,
            "migrations": self.migrations,
            "error": self.error,
            "top_cluster": list(self.top_cluster),
            "top_volume": round(self.top_volume, 9),
            "num_clusters": self.num_clusters,
            "attribution_digest": self.attribution_digest,
            "checkpoint_digest": self.checkpoint_digest,
        }


class AttackShard:
    """Fleet lifecycle around one live traceback service.

    Args:
        attack: the attack this shard tracks.
        checkpoint_dir: directory shared by the whole fleet; this
            shard's checkpoints land at
            :func:`~repro.live.checkpoint.shard_checkpoint_path` under
            it.  Empty disables checkpointing (crash recovery then
            restarts from scratch).
        checkpoint_every: periodic checkpoint cadence in windows.
        obs: the shard's (tagged) observability bundle.
        injector: optional per-shard fault injector.
        flight: optional :class:`~repro.obs.flight.FlightRecorder` (the
            shard's black box); dumps on contained crashes (reason
            ``crash``), scripted kills (``kill``), and checkpoint
            rollback on resume (``rollback``).
    """

    def __init__(
        self,
        attack: AttackSpec,
        checkpoint_dir: str = "",
        checkpoint_every: int = 0,
        obs: Optional[Observability] = None,
        injector=None,
        flight=None,
    ) -> None:
        self.attack = attack
        self.obs = obs if obs is not None else Observability()
        self.injector = injector
        self.flight = flight
        self.state = PENDING
        self.checkpoint_path = (
            shard_checkpoint_path(checkpoint_dir, attack.tenant, attack.prefix)
            if checkpoint_dir
            else ""
        )
        scenario = attack.scenario
        if self.checkpoint_path and checkpoint_every > 0:
            scenario = replace(
                scenario,
                checkpoint_every=checkpoint_every,
                checkpoint_path=self.checkpoint_path,
            )
        self.scenario = scenario
        self.service: Optional[LiveTracebackService] = None
        self.crashes = 0
        self.resumes = 0
        self.migrations = 0
        self.error = ""
        self._final: Optional[LiveReport] = None
        self._last_clock = 0.0

    # -- identity -------------------------------------------------------

    @property
    def key(self) -> ShardKey:
        return self.attack.key

    @property
    def label(self) -> str:
        return self.attack.label

    @property
    def tenant(self) -> str:
        return self.attack.tenant

    @property
    def runnable(self) -> bool:
        return self.state in RUNNABLE_STATES

    @property
    def finished(self) -> bool:
        return self.state in FINISHED_STATES

    @property
    def live(self) -> bool:
        """Counts against the admission bound."""
        return self.state in LIVE_STATES

    @property
    def clock_minutes(self) -> float:
        if self.service is not None:
            self._last_clock = self.service.clock.now
        return self._last_clock

    # -- lifecycle ------------------------------------------------------

    def activate(self, testbed, engine) -> None:
        """Build the live service (runs the shard's premeasure)."""
        if self.state != PENDING:
            raise FleetError(f"cannot activate shard {self.label} ({self.state})")
        self.service = LiveTracebackService(
            scenario=self.scenario,
            spec=self.attack.testbed,
            testbed=testbed,
            injector=self.injector,
            obs=self.obs,
            engine=engine,
        )
        self.state = ACTIVE

    def step(
        self, on_window: Optional[Callable[[WindowStats], None]] = None
    ) -> bool:
        """One unit of work, crash-contained; True while more remains."""
        if self.service is None or not self.runnable:
            raise FleetError(f"shard {self.label} is not runnable ({self.state})")
        try:
            more = self.service.step(on_window)
            self._last_clock = self.service.clock.now
        except Exception as exc:  # noqa: BLE001 — containment boundary
            self.error = f"{type(exc).__name__}: {exc}"
            self.crashes += 1
            self.state = FAILED
            self.service = None
            self.dump_flight("crash", error=self.error)
            self._log(
                "warning",
                f"shard {self.label} crashed (contained): {self.error}",
                event="shard_crash",
                error=self.error,
            )
            return False
        if not more:
            self._final = self.service.report()
            self.state = DONE
        return more

    def crash(self) -> None:
        """Simulate a hard kill: the service's in-memory state is lost.

        The shard keeps only what a real restart would have — its spec
        and whatever checkpoints reached disk.
        """
        if self.service is None:
            raise FleetError(f"cannot crash shard {self.label} ({self.state})")
        self._last_clock = self.service.clock.now
        if self.service._owns_engine:
            self.service.engine.close()
        self.service = None
        self.error = "killed by fleet event"
        self.crashes += 1
        self.state = FAILED
        self.dump_flight("kill")
        self._log(
            "warning",
            f"shard {self.label} killed at minute {self._last_clock:g}",
            event="shard_kill",
        )

    def resume(self, testbed, engine) -> bool:
        """Recover a failed shard; returns True when it resumed from a
        checkpoint (False = restarted from scratch)."""
        if self.state != FAILED:
            raise FleetError(f"cannot resume shard {self.label} ({self.state})")
        if self.checkpoint_path and os.path.exists(self.checkpoint_path):
            self.service = load_checkpoint(
                self.checkpoint_path,
                engine=engine,
                testbed=testbed,
                obs=self.obs,
            )
            if self.service.checkpoint_migrated_from is not None:
                self.migrations += 1
            self.resumes += 1
            self.state = ACTIVE
            if self.service.restored_via_rollback:
                self.dump_flight(
                    "rollback", clock_minutes=round(self.service.clock.now, 6)
                )
            self._log(
                "info",
                f"shard {self.label} resumed from checkpoint at minute "
                f"{self.service.clock.now:g}",
                event="shard_resume",
                rollback=self.service.restored_via_rollback,
            )
            return True
        self.state = PENDING
        self.activate(testbed, engine)
        self.resumes += 1
        self._log(
            "info",
            f"shard {self.label} restarted from scratch (no checkpoint)",
            event="shard_resume",
            rollback=False,
        )
        return False

    def drain(self) -> None:
        """Finish gracefully: keep the evidence, stop taking work."""
        if self.finished:
            return
        if self.service is None:
            # Never admitted (or crashed): nothing to keep.
            self.evict()
            return
        self.service.finish("drained by fleet operator")
        self.state = DRAINING

    def evict(self) -> None:
        """Remove the shard immediately (terminal)."""
        if self.service is not None:
            self._last_clock = self.service.clock.now
            self._final = self.service.report()
            self.service.close()
            self.service = None
        self.state = EVICTED

    def force_checkpoint(self) -> str:
        """Checkpoint now (fleet ``checkpoint`` event); returns the path."""
        if self.service is None:
            raise FleetError(f"shard {self.label} has no service to checkpoint")
        if not self.checkpoint_path:
            raise FleetError(
                f"shard {self.label} has no checkpoint directory configured"
            )
        return self.service.checkpoint(self.checkpoint_path)

    def finalize(self) -> None:
        """Release resources at end of run (no state change for DONE)."""
        if self.service is not None:
            self._last_clock = self.service.clock.now
            if self._final is None and self.service.finished:
                self._final = self.service.report()
            self.service.close()
            self.service = None

    def _log(self, level: str, message: str, *, event: str, **fields) -> None:
        """Lifecycle logging through the shard's (tagged) logbook.

        In fleet mode the logbook publishes through the shard's tagged
        bus (see :func:`~repro.fleet.obs.shard_observability`), which
        injects ``tenant``/``attack`` fields, so ``--log-json`` streams
        are filterable by shard; unarmed runs (``logbook is None``) pay
        nothing.
        """
        if self.obs.logbook is not None:
            self.obs.logbook.log(level, message, event=event, **fields)

    def dump_flight(self, reason: str, **extra) -> str:
        """Dump this shard's black box (no-op without a recorder).

        The context carries only simulated/logical state — lifecycle
        state, simulated clock, crash/resume counts — so two replays
        that die at the same logical point dump identical bundles.
        """
        if self.flight is None:
            return ""
        context = {
            "state": self.state,
            "clock_minutes": round(self._last_clock, 6),
            "crashes": self.crashes,
            "resumes": self.resumes,
        }
        context.update(extra)
        return self.flight.dump(reason, context=context)

    # -- reporting ------------------------------------------------------

    def report(self) -> ShardReport:
        """Current accounting snapshot (final once the shard finished)."""
        out = ShardReport(
            tenant=self.attack.tenant,
            prefix=self.attack.prefix,
            state=self.state,
            crashes=self.crashes,
            resumes=self.resumes,
            migrations=self.migrations,
            error=self.error,
            checkpoint_path=self.checkpoint_path,
            checkpoint_digest=checkpoint_digest(self.checkpoint_path),
        )
        live = self._final
        if live is None and self.service is not None:
            stats = self.service.run_stats()
            out.windows = stats.windows
            out.configs_consumed = stats.configs_consumed
            out.clock_minutes = self.clock_minutes
            out.entropy_bits = stats.final_entropy
            out.offered_volume = stats.offered_volume
            out.dropped_volume = stats.dropped_volume
            out.num_clusters = len(self.service.attributor.clusters())
            return out
        if live is not None:
            stats = live.run_stats
            out.windows = stats.windows
            out.configs_consumed = stats.configs_consumed
            out.stop_reason = stats.stop_reason
            out.entropy_bits = stats.final_entropy
            out.offered_volume = stats.offered_volume
            out.dropped_volume = stats.dropped_volume
            out.num_clusters = len(live.clusters)
            out.attribution_digest = attribution_digest(live)
            if live.localization is not None and live.localization.ranked:
                top = live.localization.ranked[0]
                out.top_cluster = sorted(top.members)
                out.top_volume = top.estimated_volume
            out.clock_minutes = self.clock_minutes
        return out
