"""Tests for the live runtime's clock, batches, and ingestion queue."""

import pytest

from repro.errors import LiveServiceError
from repro.live import (
    BoundedIngestQueue,
    PacketBatch,
    SimClock,
)


def batch(volume: float, unattributed: float = 0.0) -> PacketBatch:
    return PacketBatch(
        timestamp=0.0, volumes={"l1": volume}, unattributed=unattributed
    )


class TestSimClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.advance(20.0) == 20.0
        assert clock.now == 20.0

    def test_rejects_negative_advance(self):
        with pytest.raises(LiveServiceError):
            SimClock().advance(-1.0)

    def test_rejects_negative_start(self):
        with pytest.raises(LiveServiceError):
            SimClock(start=-5.0)


class TestEvents:
    def test_batch_volume_accounting(self):
        event = PacketBatch(
            timestamp=1.0, volumes={"l1": 2.0, "l2": 3.0}, unattributed=0.5
        )
        assert event.attributed_volume == pytest.approx(5.0)
        assert event.offered_volume == pytest.approx(5.5)


class TestBoundedIngestQueue:
    def test_accepts_below_capacity(self):
        queue = BoundedIngestQueue(capacity=3)
        assert all(queue.offer(batch(1.0)) for _ in range(3))
        assert queue.depth == 3
        assert queue.stats.dropped_batches == 0

    def test_newest_policy_rejects_incoming(self):
        queue = BoundedIngestQueue(capacity=2, drop_policy="newest")
        queue.offer(batch(1.0))
        queue.offer(batch(2.0))
        assert not queue.offer(batch(5.0))
        assert queue.depth == 2
        assert queue.stats.dropped_batches == 1
        assert queue.stats.dropped_volume == pytest.approx(5.0)
        # The survivors are the two oldest batches.
        drained = queue.drain()
        assert [b.volumes["l1"] for b in drained] == [1.0, 2.0]

    def test_oldest_policy_evicts_head(self):
        queue = BoundedIngestQueue(capacity=2, drop_policy="oldest")
        queue.offer(batch(1.0))
        queue.offer(batch(2.0))
        assert not queue.offer(batch(5.0))
        drained = queue.drain()
        assert [b.volumes["l1"] for b in drained] == [2.0, 5.0]
        assert queue.stats.dropped_volume == pytest.approx(1.0)

    @pytest.mark.parametrize("policy", ["newest", "oldest"])
    def test_volume_conservation_under_overload(self, policy):
        queue = BoundedIngestQueue(capacity=4, drop_policy=policy)
        offered = 0.0
        for step in range(20):
            volume = float(step + 1)
            queue.offer(batch(volume, unattributed=0.25))
            offered += volume + 0.25
        stats = queue.stats
        assert stats.offered_batches == 20
        assert stats.offered_volume == pytest.approx(offered)
        assert stats.accepted_volume + stats.dropped_volume == pytest.approx(
            offered
        )
        assert stats.accepted_batches + stats.dropped_batches == 20
        # What is still drainable is exactly the accepted volume.
        drained = queue.drain()
        assert sum(b.offered_volume for b in drained) == pytest.approx(
            stats.accepted_volume
        )

    def test_drain_empties_queue(self):
        queue = BoundedIngestQueue(capacity=8)
        for _ in range(5):
            queue.offer(batch(1.0))
        assert len(queue.drain()) == 5
        assert queue.depth == 0
        assert queue.drain() == []

    def test_max_depth_tracked(self):
        queue = BoundedIngestQueue(capacity=8)
        for _ in range(5):
            queue.offer(batch(1.0))
        queue.drain()
        assert queue.stats.max_queue_depth == 5

    def test_stats_copy_is_independent(self):
        queue = BoundedIngestQueue(capacity=1)
        queue.offer(batch(1.0))
        snapshot = queue.stats.copy()
        queue.offer(batch(2.0))
        assert snapshot.offered_batches == 1 and snapshot.dropped_batches == 0
        assert queue.stats.offered_batches == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(LiveServiceError):
            BoundedIngestQueue(capacity=0)
        with pytest.raises(LiveServiceError):
            BoundedIngestQueue(drop_policy="random")

