"""Interposition hooks that fire faults from a :class:`FaultPlan`.

One :class:`FaultInjector` instance is threaded through every subsystem
whose evidence can degrade in production:
:class:`~repro.measurement.campaign.MeasurementCampaign` (collector
flaps, lost traceroutes), the batch pipeline's ground-truth catchments
(measurement loss → partial maps), and the live runtime (volume-noise
bursts, route-churn storms, checkpoint corruption).

Decisions are made *centrally*, from the plan's seeded digests.  That
keeps chaos runs deterministic regardless of call order, and lets the
injector's :class:`FaultLog` account every fired fault in one place —
and, given a bus, publish each firing as a ``fault`` event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..types import Catchment, LinkId
from .plan import (
    CHECKPOINT_CORRUPTION,
    COLLECTOR_FLAP,
    MEASUREMENT_LOSS,
    ROUTE_CHURN,
    VOLUME_NOISE,
    FaultPlan,
)


@dataclass
class FaultLog:
    """Counts of fired faults by kind (main-process accounting)."""

    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, count: int = 1) -> None:
        """Account ``count`` fired faults of ``kind``."""
        self.by_kind[kind] = self.by_kind.get(kind, 0) + count

    @property
    def total(self) -> int:
        """All fired faults."""
        return sum(self.by_kind.values())

    def as_dict(self) -> Dict[str, int]:
        """Sorted copy for reports."""
        return {kind: self.by_kind[kind] for kind in sorted(self.by_kind)}


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every injection site.

    The injector is stateless apart from its :class:`FaultLog`: every
    decision derives from the plan's seed and the
    site's tokens, so two injectors over the same plan make identical
    decisions in any order.  An injector over the empty plan is inert —
    each hook returns its input unchanged.

    ``bus`` is an optional :class:`~repro.obs.bus.EventBus` (or tagged
    view) each firing is published to as a ``fault`` event with
    ``fault_kind`` and ``count``; the faults layer never imports
    :mod:`repro.obs`.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, bus=None) -> None:
        self.plan = plan or FaultPlan()
        self.log = FaultLog()
        self.bus = bus

    def _fire(self, kind: str, count: int = 1) -> None:
        """Account one firing and publish it when a bus is wired."""
        self.log.record(kind, count)
        if self.bus is not None:
            self.bus.publish("fault", fault_kind=kind, count=count)

    @property
    def active(self) -> bool:
        """Whether any fault can currently fire."""
        return bool(self.plan.specs)

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
            self._fire(MEASUREMENT_LOSS)
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
            self._fire(COLLECTOR_FLAP, dropped)
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
            self._fire(MEASUREMENT_LOSS, lost)
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
            self._fire(VOLUME_NOISE)
        return factor

    def extra_churn(self, window_index: int) -> Optional[float]:
        """Route-churn-storm drift striking this window, or None."""
        if not self.active:
            return None
        for position, spec in self.plan.specs_for(ROUTE_CHURN):
            if not spec.active_at(window_index) or spec.intensity <= 0:
                continue
            if self.plan.decision(ROUTE_CHURN, position, window_index) < spec.rate:
                self._fire(ROUTE_CHURN)
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
        self._fire(CHECKPOINT_CORRUPTION)
