"""Interposition hooks that fire faults from a :class:`FaultPlan`.

One :class:`FaultInjector` instance is threaded through every subsystem
that can fail in production: the :class:`~repro.core.engine.SimulationEngine`
(simulation crashes and hangs), :class:`~repro.measurement.campaign.MeasurementCampaign`
(collector flaps, lost traceroutes), the batch pipeline's ground-truth
catchments (measurement loss → partial maps), and the live runtime
(volume-noise bursts, route-churn storms, checkpoint corruption).

Decisions are made *centrally*, from the plan's seeded digests, and only
the resulting :class:`FaultAction` is executed at the site.  That keeps
chaos runs deterministic regardless of scheduling, and lets the
injector's :class:`FaultLog` account every fired fault in one place.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import InjectedFault
from ..types import Catchment, LinkId
from .plan import (
    CHECKPOINT_CORRUPTION,
    COLLECTOR_FLAP,
    MEASUREMENT_LOSS,
    ROUTE_CHURN,
    VOLUME_NOISE,
    WORKER_CRASH,
    WORKER_HANG,
    FaultPlan,
)

#: Action kinds executable at a simulation site.
ACTION_CRASH = "crash"
ACTION_HANG = "hang"


@dataclass(frozen=True)
class FaultAction:
    """A decided fault, ready to execute at its site."""

    kind: str
    delay_seconds: float = 0.0

    def execute(self) -> None:
        """Carry the fault out: raise (crash) or stall (hang)."""
        if self.kind == ACTION_CRASH:
            raise InjectedFault("injected worker crash")
        time.sleep(self.delay_seconds)


@dataclass
class FaultLog:
    """Counts of fired faults by kind (main-process accounting).

    ``listeners`` (excluded from equality/serialization) are invoked as
    ``listener(kind, count)`` on every record — the hook the CLI uses to
    forward fault events onto the observability bus without the faults
    layer importing :mod:`repro.obs`.
    """

    by_kind: Dict[str, int] = field(default_factory=dict)
    listeners: List[Callable[[str, int], None]] = field(
        default_factory=list, repr=False, compare=False
    )

    def record(self, kind: str, count: int = 1) -> None:
        """Account ``count`` fired faults of ``kind``."""
        self.by_kind[kind] = self.by_kind.get(kind, 0) + count
        for listener in self.listeners:
            listener(kind, count)

    @property
    def total(self) -> int:
        """All fired faults."""
        return sum(self.by_kind.values())

    def as_dict(self) -> Dict[str, int]:
        """Sorted copy for reports."""
        return {kind: self.by_kind[kind] for kind in sorted(self.by_kind)}


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every injection site.

    The injector is stateless apart from its :class:`FaultLog` and a
    suppression flag: every decision derives from the plan's seed and the
    site's tokens, so two injectors over the same plan make identical
    decisions in any order.  An injector over the empty plan is inert —
    each hook returns its input unchanged.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.log = FaultLog()
        self._suppressed = 0

    @property
    def active(self) -> bool:
        """Whether any fault can currently fire."""
        return not self._suppressed and bool(self.plan.specs)

    @contextmanager
    def suppressed(self):
        """Disable injection inside the block (retry-exhaustion bypass)."""
        self._suppressed += 1
        try:
            yield self
        finally:
            self._suppressed -= 1

    # ------------------------------------------------------------------
    # Simulation engine site
    # ------------------------------------------------------------------

    def simulation_action(
        self, ordinal: int, token: str, attempt: int = 0
    ) -> Optional[FaultAction]:
        """Fault to execute for one simulation task, or None.

        Args:
            ordinal: the task's position among the engine's distinct
                simulations (drives spec start/stop windows).
            token: canonical configuration identity.
            attempt: retry ordinal — decisions are re-drawn per attempt,
                so bounded retries can outlast a sub-certain crash rate.

        Crash takes precedence over hang when both fire.
        """
        if not self.active:
            return None
        for position, spec in self.plan.specs_for(WORKER_CRASH):
            if not spec.active_at(ordinal):
                continue
            if self.plan.decision(WORKER_CRASH, position, token, attempt) < spec.rate:
                self.log.record(WORKER_CRASH)
                return FaultAction(kind=ACTION_CRASH)
        for position, spec in self.plan.specs_for(WORKER_HANG):
            if not spec.active_at(ordinal):
                continue
            if self.plan.decision(WORKER_HANG, position, token, attempt) < spec.rate:
                self.log.record(WORKER_HANG)
                return FaultAction(
                    kind=ACTION_HANG, delay_seconds=spec.delay_seconds
                )
        return None

    # ------------------------------------------------------------------
    # Catchment / measurement sites
    # ------------------------------------------------------------------

    def degrade_catchments(
        self, index: int, catchments: Mapping[LinkId, Catchment]
    ) -> Tuple[Dict[LinkId, Catchment], frozenset]:
        """Apply measurement loss to one configuration's catchment maps.

        Returns the (possibly thinned) maps and the set of links whose
        catchments are now partial.  Degraded links must be treated as
        lossy evidence: clustering skips them (widening clusters) instead
        of splitting sources on members that merely went unmeasured.
        """
        maps: Dict[LinkId, Catchment] = {
            link: frozenset(members) for link, members in catchments.items()
        }
        degraded: set = set()
        if not self.active:
            return maps, frozenset()
        for position, spec in self.plan.specs_for(MEASUREMENT_LOSS):
            if not spec.active_at(index) or spec.intensity <= 0:
                continue
            if self.plan.decision(MEASUREMENT_LOSS, position, index) >= spec.rate:
                continue
            rng = random.Random(
                f"{self.plan.seed}|{MEASUREMENT_LOSS}|{position}|{index}"
            )
            for link in sorted(maps):
                kept = frozenset(
                    asn
                    for asn in sorted(maps[link])
                    if rng.random() >= spec.intensity
                )
                if kept != maps[link]:
                    maps[link] = kept
                    degraded.add(link)
        if degraded:
            self.log.record(MEASUREMENT_LOSS)
        return maps, frozenset(degraded)

    def flap_collectors(
        self, index: int, observations: Mapping
    ) -> Tuple[Dict, int]:
        """Drop vantage observations for one configuration (collector flap).

        Returns the surviving observations and the number dropped.
        """
        if not self.active:
            return dict(observations), 0
        surviving = dict(observations)
        dropped = 0
        for position, spec in self.plan.specs_for(COLLECTOR_FLAP):
            if not spec.active_at(index) or spec.intensity <= 0:
                continue
            if self.plan.decision(COLLECTOR_FLAP, position, index) >= spec.rate:
                continue
            rng = random.Random(
                f"{self.plan.seed}|{COLLECTOR_FLAP}|{position}|{index}"
            )
            for vantage in sorted(surviving):
                if rng.random() < spec.intensity:
                    del surviving[vantage]
                    dropped += 1
        if dropped:
            self.log.record(COLLECTOR_FLAP, dropped)
        return surviving, dropped

    def drop_traceroutes(self, index: int, traceroutes: List) -> Tuple[List, int]:
        """Lose a fraction of one configuration's traceroutes.

        Returns the surviving traceroutes (order preserved) and the
        number lost.
        """
        if not self.active:
            return list(traceroutes), 0
        surviving = list(traceroutes)
        lost = 0
        for position, spec in self.plan.specs_for(MEASUREMENT_LOSS):
            if not spec.active_at(index) or spec.intensity <= 0:
                continue
            if self.plan.decision(MEASUREMENT_LOSS, position, "traces", index) >= spec.rate:
                continue
            rng = random.Random(
                f"{self.plan.seed}|{MEASUREMENT_LOSS}|traces|{position}|{index}"
            )
            kept = [trace for trace in surviving if rng.random() >= spec.intensity]
            lost += len(surviving) - len(kept)
            surviving = kept
        if lost:
            self.log.record(MEASUREMENT_LOSS, lost)
        return surviving, lost

    # ------------------------------------------------------------------
    # Live-runtime sites
    # ------------------------------------------------------------------

    def volume_noise_factor(self, window_index: int, batch_index: int) -> float:
        """Multiplicative volume perturbation for one traffic batch.

        1.0 means no burst fired.  The factor scales attributed and
        unattributed volume alike, so conservation is preserved.
        """
        factor = 1.0
        if not self.active:
            return factor
        for position, spec in self.plan.specs_for(VOLUME_NOISE):
            if not spec.active_at(window_index) or spec.intensity <= 0:
                continue
            draw = self.plan.decision(
                VOLUME_NOISE, position, window_index, batch_index
            )
            if draw >= spec.rate:
                continue
            rng = random.Random(
                f"{self.plan.seed}|{VOLUME_NOISE}|{position}|{window_index}|{batch_index}"
            )
            factor *= max(0.0, 1.0 + rng.uniform(-spec.intensity, spec.intensity))
            self.log.record(VOLUME_NOISE)
        return factor

    def extra_churn(self, window_index: int) -> Optional[float]:
        """Route-churn-storm drift striking this window, or None."""
        if not self.active:
            return None
        for position, spec in self.plan.specs_for(ROUTE_CHURN):
            if not spec.active_at(window_index) or spec.intensity <= 0:
                continue
            if self.plan.decision(ROUTE_CHURN, position, window_index) < spec.rate:
                self.log.record(ROUTE_CHURN)
                return min(1.0, spec.intensity)
        return None

    # ------------------------------------------------------------------
    # Checkpoint site
    # ------------------------------------------------------------------

    def should_corrupt_checkpoint(self, ordinal: int) -> bool:
        """Whether the ``ordinal``-th checkpoint write gets corrupted."""
        if not self.active:
            return False
        for position, spec in self.plan.specs_for(CHECKPOINT_CORRUPTION):
            if not spec.active_at(ordinal):
                continue
            if self.plan.decision(CHECKPOINT_CORRUPTION, position, ordinal) < spec.rate:
                return True
        return False

    def corrupt_file(self, path: str, ordinal: int) -> None:
        """Deterministically mangle a written checkpoint (torn write).

        Truncates to a seeded fraction and appends garbage, simulating a
        crash mid-write on a filesystem without atomic rename.
        """
        rng = random.Random(
            f"{self.plan.seed}|{CHECKPOINT_CORRUPTION}|{ordinal}"
        )
        with open(path, "rb") as handle:
            data = handle.read()
        cut = int(len(data) * rng.uniform(0.2, 0.8))
        with open(path, "wb") as handle:
            handle.write(data[:cut])
            handle.write(b"\x00CORRUPT\x00")
        self.log.record(CHECKPOINT_CORRUPTION)
