"""Bounded ingestion for the live runtime.

During a real attack the honeypot produces observations faster than the
control loop consumes them.  :class:`BoundedIngestQueue` makes that safe:
capacity is fixed, overflow is an explicit *drop* with volume accounting
(never unbounded growth), and the policy — reject the newest batch or
evict the oldest — is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, List

from ..errors import LiveServiceError
from .events import PacketBatch

#: Queue overflow policies: refuse the incoming batch, or evict the
#: oldest queued batch to make room.
DROP_POLICIES = ("newest", "oldest")


@dataclass
class IngestStats:
    """Backpressure accounting for one ingestion queue.

    Volume conservation holds at all times::

        offered_volume == accepted_volume + dropped_volume

    (and likewise for batch counts), so a replay can report exactly how
    much attack traffic the overloaded consumer never saw.
    """

    offered_batches: int = 0
    accepted_batches: int = 0
    dropped_batches: int = 0
    offered_volume: float = 0.0
    accepted_volume: float = 0.0
    dropped_volume: float = 0.0
    max_queue_depth: int = 0

    def copy(self) -> "IngestStats":
        """Independent snapshot of the counters."""
        return replace(self)


class BoundedIngestQueue:
    """Fixed-capacity FIFO of :class:`PacketBatch` with drop accounting.

    Args:
        capacity: maximum queued batches (≥ 1).
        drop_policy: ``"newest"`` rejects the offered batch when full;
            ``"oldest"`` evicts the head to admit the new batch (the
            window then sees the freshest traffic at the cost of history).
    """

    def __init__(self, capacity: int = 64, drop_policy: str = "newest") -> None:
        if capacity < 1:
            raise LiveServiceError("queue capacity must be at least 1")
        if drop_policy not in DROP_POLICIES:
            raise LiveServiceError(
                f"unknown drop policy {drop_policy!r}; expected one of {DROP_POLICIES}"
            )
        self.capacity = capacity
        self.drop_policy = drop_policy
        self.stats = IngestStats()
        self._queue: Deque[PacketBatch] = deque()

    @property
    def depth(self) -> int:
        """Batches currently queued."""
        return len(self._queue)

    def offer(self, batch: PacketBatch) -> bool:
        """Enqueue a batch; returns False when it (or a victim) was dropped.

        Dropped volume is accounted against the batch that was actually
        discarded — the incoming one under ``"newest"``, the evicted head
        under ``"oldest"`` — so conservation holds either way.
        """
        stats = self.stats
        stats.offered_batches += 1
        stats.offered_volume += batch.offered_volume
        admitted = True
        if len(self._queue) >= self.capacity:
            if self.drop_policy == "newest":
                stats.dropped_batches += 1
                stats.dropped_volume += batch.offered_volume
                return False
            victim = self._queue.popleft()
            stats.dropped_batches += 1
            stats.dropped_volume += victim.offered_volume
            # The victim was once accepted; rebalance so accepted tracks
            # what the consumer can still drain.
            stats.accepted_batches -= 1
            stats.accepted_volume -= victim.offered_volume
            admitted = False
        self._queue.append(batch)
        stats.accepted_batches += 1
        stats.accepted_volume += batch.offered_volume
        stats.max_queue_depth = max(stats.max_queue_depth, len(self._queue))
        return admitted

    def drain(self) -> List[PacketBatch]:
        """Dequeue every queued batch, oldest first."""
        drained = list(self._queue)
        self._queue.clear()
        return drained
