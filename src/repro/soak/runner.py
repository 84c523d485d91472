"""The soak runner: a disrupted long-horizon campaign vs. its reference.

:class:`SoakRunner` drives one fleet campaign as a sequence of epochs
and makes each epoch boundary hostile on purpose:

* **fault escalation** — per-tenant engine injectors are rebuilt every
  epoch from the plan's :func:`~repro.faults.plan.escalation_curve`
  scale (infra faults only: the engine contains worker crashes/hangs
  with byte-identical results),
* **scripted kills** — seeded per-shard draws hard-kill live services,
  which auto-resume from their checkpoints,
* **checkpoint corruption** — seeded draws mangle a shard's primary
  checkpoint right before a restart, forcing the rollback path through
  the rotated generations,
* **whole-process restarts** — the runtime is torn down and rebuilt
  mid-stream (``skip_events`` + :meth:`~repro.fleet.runtime.FleetRuntime.adopt`),
  every surviving shard resuming from disk,
* **schema alternation** — odd epochs write checkpoint schema v1 via
  :func:`~repro.live.checkpoint.writing_version`, so restarts exercise
  the v1→v2 migration registry mid-campaign (a rolling upgrade drill),
* **tenant churn** — extra tenants launch and are evicted through the
  shared event stream (so the reference run churns identically).

The verdict is the fleet digest: after all of that, the disrupted
campaign's final attribution digest must equal an uninterrupted
reference run over the *same* event stream.  Determinism is not a test
fixture here — it is the oracle that makes a simulated-weeks soak
checkable at all.

Disruptions deliberately live in the runner, not the event stream:
kills, restarts, and corruption are *process* failures the stream's
description of the campaign must be independent of.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from ..errors import FleetError
from ..faults.injection import FaultInjector
from ..faults.plan import FaultPlan, escalation_curve, load_fault_plan, stable_unit
from ..fleet.runtime import FleetReport, FleetRuntime, fleet_digest
from ..fleet.shard import EVICTED, ShardReport
from ..fleet.spec import ShardKey
from ..fleet.stream import FleetEvent
from ..live.checkpoint import (
    CHECKPOINT_VERSION,
    generation_path,
    writing_version,
)
from ..obs import Observability
from .report import EpochStats, SoakReport
from .sentinel import ResourceSentinel
from .spec import SoakSpec


class SoakRunner:
    """Runs one soak campaign end to end.

    Args:
        spec: the frozen soak recipe.
        checkpoint_dir: directory for the disrupted campaign's
            checkpoints (required — restarts resume from disk).
        obs: observability bundle shared by the disrupted campaign, the
            sentinel, and (via tagged views) every shard.  The reference
            run deliberately runs unobserved so its bus/metrics traffic
            never mixes with the campaign under test.
        verify: perform the uninterrupted reference run and compare
            digests (skip for quick smoke runs).
        reference_dir: checkpoint directory for the reference run
            (default ``<checkpoint_dir>/reference``; checkpoint bytes
            are location-independent, so the separate directory does not
            affect the comparison).
        flight_dir: directory for per-shard flight-recorder bundles
            ("" leaves flight recording off).  Kills dump through the
            shard's own recorder (reason ``kill``); checkpoint
            corruption dumps here with reason ``corruption`` before the
            restart destroys the evidence.  The reference run never
            records flights — it must stay unobserved.
    """

    def __init__(
        self,
        spec: SoakSpec,
        checkpoint_dir: str,
        obs: Optional[Observability] = None,
        verify: bool = True,
        reference_dir: str = "",
        flight_dir: str = "",
    ) -> None:
        if not checkpoint_dir:
            raise FleetError(
                "soak runs need a checkpoint directory — restarts resume "
                "from disk"
            )
        self.spec = spec
        self.checkpoint_dir = checkpoint_dir
        self.obs = obs if obs is not None else Observability()
        self.verify = verify
        self.reference_dir = reference_dir or os.path.join(
            checkpoint_dir, "reference"
        )
        self.flight_dir = flight_dir
        self.sentinel = ResourceSentinel(spec.ceilings, obs=self.obs)
        self._plan: Optional[FaultPlan] = (
            load_fault_plan(spec.fault_plan).infra_only()
            if spec.fault_plan
            else None
        )
        self._curve = escalation_curve(
            spec.epochs, spec.escalation_base, spec.escalation_growth
        )

    # -- epoch mechanics -------------------------------------------------

    def version_for(self, epoch: int) -> int:
        """The checkpoint schema version this epoch writes."""
        if self.spec.alternate_versions and epoch % 2 == 1:
            return CHECKPOINT_VERSION - 1
        return CHECKPOINT_VERSION

    def _build(self, events: Sequence[FleetEvent], skip: int) -> FleetRuntime:
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        return FleetRuntime(
            self.spec.fleet,
            events=events,
            obs=self.obs,
            checkpoint_dir=self.checkpoint_dir,
            skip_events=skip,
            flight_dir=self.flight_dir,
        )

    def _escalate(self, runtime: FleetRuntime, epoch: int) -> None:
        """Swap in this epoch's scaled engine injectors."""
        if self._plan is None or not self._plan.specs:
            return
        scaled = self._plan.scaled(self._curve[epoch])
        runtime.set_engine_injector_factory(
            lambda tenant: FaultInjector(scaled)
        )

    def _kill(self, runtime: FleetRuntime, epoch: int) -> int:
        """Seeded hard kills at the epoch boundary (auto-resumed)."""
        if self.spec.kill_rate <= 0:
            return 0
        count = 0
        for key in sorted(runtime.shards):
            shard = runtime.shards[key]
            if shard.service is None or not shard.runnable:
                continue
            draw = stable_unit(
                self.spec.fleet.seed, "soak-kill", epoch, *key
            )
            if draw < self.spec.kill_rate:
                runtime.crash(key)
                count += 1
        return count

    def _corrupt(self, runtime: FleetRuntime, epoch: int) -> int:
        """Seeded primary-checkpoint mangling just before a restart.

        Damages the file from outside (the way real corruption arrives),
        and only when a rotated ``.1`` generation exists: the adopted
        shard then rolls back, replays, and *rewrites* the primary
        byte-identically — checkpoint ordinals travel in the payload.
        """
        if self.spec.corrupt_rate <= 0:
            return 0
        count = 0
        for key in sorted(runtime.shards):
            shard = runtime.shards[key]
            path = shard.checkpoint_path
            if not path or not os.path.exists(path):
                continue
            if not os.path.exists(generation_path(path, 1)):
                continue
            draw = stable_unit(
                self.spec.fleet.seed, "soak-corrupt", epoch, *key
            )
            if draw < self.spec.corrupt_rate:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("damaged by soak harness\n")
                count += 1
                # Dump the black box *now*: the imminent restart tears
                # this runtime (and its rings) down.
                shard.dump_flight("corruption", epoch=epoch)
        return count

    def _restart_due(self, epoch: int) -> bool:
        every = self.spec.restart_every
        return every > 0 and (epoch + 1) % every == 0

    def _restart(
        self,
        runtime: FleetRuntime,
        events: Sequence[FleetEvent],
        carried: Dict[ShardKey, ShardReport],
        totals: Dict[str, int],
    ) -> FleetRuntime:
        """Whole-process-style restart: rebuild the runtime mid-stream.

        Evicted shards cannot be re-created (their evidence lives only
        in their final report), so their reports are carried across the
        restart; every other shard is adopted and resumes from disk.
        """
        snapshot = runtime.report()
        totals["resumes"] += snapshot.resumes
        totals["migrations"] += snapshot.migrations
        totals["crashes"] += snapshot.crashes
        adoptable = []
        for key in sorted(runtime.shards):
            shard = runtime.shards[key]
            if shard.state == EVICTED:
                carried[key] = shard.report()
            else:
                adoptable.append(shard.attack)
        skip = runtime._cursor
        runtime.close()
        rebuilt = self._build(events, skip=skip)
        for attack in adoptable:
            rebuilt.adopt(attack)
        return rebuilt

    @staticmethod
    def _windows(
        report: FleetReport, carried: Dict[ShardKey, ShardReport]
    ) -> int:
        return sum(shard.windows for shard in report.shards) + sum(
            shard.windows for shard in carried.values()
        )

    # -- drivers ---------------------------------------------------------

    def reference_run(
        self, events: Optional[Sequence[FleetEvent]] = None
    ) -> FleetReport:
        """The uninterrupted oracle: same stream, no disruptions.

        Runs unobserved (fresh :class:`~repro.obs.Observability`) in its
        own checkpoint directory so nothing it does bleeds into the
        campaign under test.
        """
        stream = list(events) if events is not None else self.spec.events()
        os.makedirs(self.reference_dir, exist_ok=True)
        runtime = FleetRuntime(
            self.spec.fleet,
            events=stream,
            checkpoint_dir=self.reference_dir,
        )
        try:
            return runtime.run()
        finally:
            runtime.close()

    def run(self) -> SoakReport:
        """Drive the whole campaign; returns the end-of-soak report."""
        events = self.spec.events()
        runtime = self._build(events, skip=0)
        carried: Dict[ShardKey, ShardReport] = {}
        totals = {"resumes": 0, "migrations": 0, "crashes": 0}
        epoch_rows: List[EpochStats] = []
        restarts = kills_total = corruptions_total = 0
        try:
            for epoch, horizon in enumerate(self.spec.horizons()):
                self._escalate(runtime, epoch)
                version = self.version_for(epoch)
                with writing_version(version):
                    runtime.run_until(horizon)
                kills = 0
                corruptions = 0
                restarted = False
                if horizon is not None:
                    kills = self._kill(runtime, epoch)
                    kills_total += kills
                    if self._restart_due(epoch):
                        corruptions = self._corrupt(runtime, epoch)
                        corruptions_total += corruptions
                        runtime = self._restart(
                            runtime, events, carried, totals
                        )
                        restarted = True
                        restarts += 1
                sample = self.sentinel.sample(epoch)
                snapshot = runtime.report()
                epoch_rows.append(
                    EpochStats(
                        epoch=epoch,
                        version_written=version,
                        horizon_minutes=horizon,
                        windows=self._windows(snapshot, carried),
                        kills=kills,
                        corruptions=corruptions,
                        restarted=restarted,
                        resumes=totals["resumes"] + snapshot.resumes,
                        migrations=totals["migrations"]
                        + snapshot.migrations,
                        crashes=totals["crashes"] + snapshot.crashes,
                        rss_mb=sample.rss_mb,
                        open_fds=sample.open_fds,
                        threads=sample.threads,
                    )
                )
            final = runtime.report()
        finally:
            runtime.close()
        shards = list(final.shards) + [
            carried[key] for key in sorted(carried)
        ]
        reference_digest = reference_digest_full = ""
        if self.verify:
            reference = self.reference_run(events)
            reference_digest = fleet_digest(
                reference.shards, include_checkpoints=False
            )
            reference_digest_full = fleet_digest(
                reference.shards, include_checkpoints=True
            )
        return SoakReport(
            epochs=epoch_rows,
            shards=shards,
            digest=fleet_digest(shards, include_checkpoints=False),
            digest_full=fleet_digest(shards, include_checkpoints=True),
            reference_digest=reference_digest,
            reference_digest_full=reference_digest_full,
            restarts=restarts,
            kills=kills_total,
            corruptions=corruptions_total,
            resumes=totals["resumes"] + final.resumes,
            migrations=totals["migrations"] + final.migrations,
            crashes=totals["crashes"] + final.crashes,
            rss_slope_mb=self.sentinel.rss_slope_mb(),
            resource_breaches=self.sentinel.breaches(),
            samples=list(self.sentinel.samples),
        )
