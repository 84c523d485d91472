"""Deterministic fault injection and graceful degradation (`repro.faults`).

The paper's method runs on infrastructure where failure is the norm —
lost traceroutes, collector outages, slow convergence, interrupted
campaigns.  This package makes failure a first-class, *seeded* input:

* :mod:`~repro.faults.plan` — declarative :class:`FaultPlan` /
  :class:`FaultSpec` schedules, bit-reproducible by construction.
* :mod:`~repro.faults.injection` — the :class:`FaultInjector` hooks
  wired into the measurement campaign, the batch pipeline and the live
  runtime.
* :mod:`~repro.faults.resilience` — the defense: atomic checksummed
  writes.
* :mod:`~repro.faults.health` — the :class:`InvariantMonitor` and the
  :class:`ResilienceReport` attached to tracker reports.
"""

from .health import (
    InvariantMonitor,
    InvariantViolation,
    ResilienceReport,
    build_resilience_report,
)
from .injection import FaultInjector, FaultLog
from .plan import (
    BUNDLED_PLANS,
    CHECKPOINT_CORRUPTION,
    COLLECTOR_FLAP,
    FAULT_KINDS,
    MEASUREMENT_LOSS,
    ROUTE_CHURN,
    VOLUME_NOISE,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
    stable_unit,
)
from .resilience import atomic_write_text, content_checksum

__all__ = [
    "BUNDLED_PLANS",
    "CHECKPOINT_CORRUPTION",
    "COLLECTOR_FLAP",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "InvariantMonitor",
    "InvariantViolation",
    "MEASUREMENT_LOSS",
    "ROUTE_CHURN",
    "ResilienceReport",
    "VOLUME_NOISE",
    "atomic_write_text",
    "build_resilience_report",
    "content_checksum",
    "load_fault_plan",
    "stable_unit",
]
