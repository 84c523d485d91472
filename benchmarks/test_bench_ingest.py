"""Raw event-ingest throughput benchmark (ROADMAP: >= 1M events/s).

The live service's raw ingest figure: ``BoundedIngestQueue.offer`` /
``drain`` cycles over :class:`PacketBatch` events with full drop
accounting, the hot path every honeypot batch crosses.

It is measured in events/s and recorded to ``BENCH_ingest.json`` along
with progress toward the 1M-events/s headline.  The assertion floor is
deliberately far below the target — CI containers are slow and noisy —
while the artifact records the real measured figure.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.live.events import PacketBatch
from repro.live.ingest import BoundedIngestQueue

ARTIFACT = os.path.join(os.path.dirname(__file__), "BENCH_ingest.json")
TARGET_EVENTS_PER_SECOND = 1_000_000
REPEATS = 3

#: Queue benchmark: batches offered per repeat, drained in blocks.
QUEUE_EVENTS = 200_000
QUEUE_CAPACITY = 1_024
DRAIN_EVERY = 512


def _queue_ingest_once() -> float:
    """One offer/drain campaign; returns elapsed seconds."""
    queue = BoundedIngestQueue(capacity=QUEUE_CAPACITY, drop_policy="oldest")
    batch = PacketBatch(timestamp=0.0, volumes={1: 10.0, 2: 4.0}, packets=14)
    offer = queue.offer
    drain = queue.drain
    start = time.perf_counter()
    for index in range(QUEUE_EVENTS):
        offer(batch)
        if index % DRAIN_EVERY == DRAIN_EVERY - 1:
            drain()
    drain()
    elapsed = time.perf_counter() - start
    stats = queue.stats
    assert stats.offered_batches == QUEUE_EVENTS
    assert stats.offered_volume == pytest.approx(
        stats.accepted_volume + stats.dropped_volume
    )
    return elapsed


def test_ingest_throughput(capsys):
    queue_seconds = min(_queue_ingest_once() for _ in range(REPEATS))
    queue_eps = QUEUE_EVENTS / queue_seconds

    record = {
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "target_events_per_second": TARGET_EVENTS_PER_SECOND,
        "queue_events": QUEUE_EVENTS,
        "queue_capacity": QUEUE_CAPACITY,
        "queue_ingest_seconds": round(queue_seconds, 4),
        "queue_events_per_second": round(queue_eps),
        "queue_pct_of_target": round(100.0 * queue_eps / TARGET_EVENTS_PER_SECOND, 1),
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The real target is 1M events/s; the floor here only guards against
    # order-of-magnitude collapses on noisy CI boxes.
    assert queue_eps > 50_000

    with capsys.disabled():
        print()
        print(f"wrote {ARTIFACT}")
        for key, value in sorted(record.items()):
            print(f"  {key:28s}: {value}")
