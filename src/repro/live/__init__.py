"""Online attack-time attribution runtime (``repro.live``).

The batch pipeline (:class:`~repro.core.pipeline.SpoofTracker`) deploys a
whole announcement schedule, then clusters, then attributes — fine for
evaluation, useless *during* an attack.  This package turns the paper's
§V-C operational discussion into a long-running subsystem:

* :mod:`~repro.live.events` — a monotonic simulated clock and the
  traffic batches stamped with it,
* :mod:`~repro.live.ingest` — bounded-queue ingestion with explicit
  backpressure/drop accounting,
* :mod:`~repro.live.attributor` — incremental clustering + NNLS re-scoring
  as each configuration's catchment arrives,
* :mod:`~repro.live.controller` — adaptive configuration selection that
  honors :class:`~repro.core.timeline.CampaignTimeline` dwell costs and
  reacts to route churn,
* :mod:`~repro.live.checkpoint` — observed-state serialize/restore so a
  killed run resumes mid-attack,
* :mod:`~repro.live.service` — the runtime tying them together, plus a
  replay driver feeding generated spoofed traffic through the loop.
"""

from .attributor import LiveAttributor
from .checkpoint import load_checkpoint, save_checkpoint
from .controller import AdaptiveController, ControllerPolicy
from .events import PacketBatch, SimClock
from .ingest import BoundedIngestQueue, IngestStats
from .service import (
    LiveReport,
    LiveRunStats,
    LiveTracebackService,
    ReplayScenario,
    WindowStats,
    attribution_digest,
)

__all__ = [
    "SimClock",
    "PacketBatch",
    "BoundedIngestQueue",
    "IngestStats",
    "LiveAttributor",
    "AdaptiveController",
    "ControllerPolicy",
    "save_checkpoint",
    "load_checkpoint",
    "LiveTracebackService",
    "ReplayScenario",
    "LiveReport",
    "LiveRunStats",
    "WindowStats",
    "attribution_digest",
]
