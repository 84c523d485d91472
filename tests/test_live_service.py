"""Tests for the online traceback service (replay, controller, attributor)."""

import random

import pytest

from repro.core.pipeline import SpoofTracker
from repro.errors import LiveServiceError
from repro.live import (
    LiveAttributor,
    LiveTracebackService,
    ReplayScenario,
)
from repro.spoof.sources import make_placement


def make_service(small_testbed, **overrides) -> LiveTracebackService:
    defaults = dict(seed=5, max_configs=5, strategy="schedule")
    defaults.update(overrides)
    return LiveTracebackService(
        scenario=ReplayScenario(**defaults), testbed=small_testbed
    )


@pytest.fixture(scope="module")
def inorder_report(small_testbed):
    service = make_service(small_testbed)
    report = service.run()
    yield report
    service.close()


@pytest.fixture(scope="module")
def batch_report(small_testbed):
    tracker = SpoofTracker(small_testbed)
    placement = make_placement(
        "pareto", sorted(small_testbed.topology.stubs), 40, random.Random(6)
    )
    report = tracker.run(max_configs=5, placement=placement)
    yield report
    tracker.engine.close()


class TestScenarioValidation:
    def test_rejects_unknown_distribution(self):
        with pytest.raises(LiveServiceError):
            ReplayScenario(distribution="nope")

    def test_rejects_unsorted_churn(self):
        with pytest.raises(LiveServiceError):
            ReplayScenario(churn_events=((8, 0.1), (4, 0.1)))

    def test_rejects_checkpoint_cadence_without_path(self):
        with pytest.raises(LiveServiceError):
            ReplayScenario(checkpoint_every=5)

    def test_rejects_bad_window(self):
        with pytest.raises(LiveServiceError):
            ReplayScenario(window_minutes=0.0)


class TestReplay:
    def test_first_deployed_config_is_anycast(self, small_testbed):
        # The universe rule (§IV-d) needs the anycast baseline first,
        # even under adaptive reordering.
        service = make_service(small_testbed, strategy="greedy", max_configs=4)
        service.run()
        assert service.deployed[0] == 0
        service.close()

    def test_replay_is_deterministic(self, small_testbed, inorder_report):
        service = make_service(small_testbed)
        again = service.run()
        service.close()
        assert again.windows == inorder_report.windows
        assert again.clusters == inorder_report.clusters
        first = {
            frozenset(c.members): c.estimated_volume
            for c in inorder_report.localization.ranked
        }
        second = {
            frozenset(c.members): c.estimated_volume
            for c in again.localization.ranked
        }
        assert first == second

    def test_rolling_attribution_tightens_monotonically(self, inorder_report):
        sizes = [w.mean_cluster_size for w in inorder_report.windows]
        assert all(b <= a + 1e-12 for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] < sizes[0]

    def test_windows_follow_dwell_model(self, inorder_report):
        # 82.5-minute dwell at 20-minute windows = 4 windows per config.
        assert len(inorder_report.windows) == 5 * 4
        assert inorder_report.run_stats.stop_reason == "schedule exhausted"

    def test_final_attribution_matches_batch_tracker(
        self, inorder_report, batch_report
    ):
        assert set(map(frozenset, inorder_report.clusters)) == set(
            map(frozenset, batch_report.clusters)
        )
        live = {
            frozenset(c.members): c.estimated_volume
            for c in inorder_report.localization.ranked
        }
        batch = {
            frozenset(c.members): c.estimated_volume
            for c in batch_report.localization.ranked
        }
        assert live.keys() == batch.keys()
        for members, volume in batch.items():
            assert live[members] == pytest.approx(volume, abs=1e-9)

    def test_volume_conservation_in_report(self, inorder_report):
        ingest = inorder_report.ingest
        assert ingest.offered_volume == pytest.approx(
            ingest.accepted_volume + ingest.dropped_volume
        )
        # Noiseless mode offers volume_per_window per window.
        assert ingest.offered_volume == pytest.approx(
            len(inorder_report.windows)
        )

    def test_report_projects_onto_tracker_report(self, inorder_report):
        tracker_report = inorder_report.to_tracker_report()
        assert tracker_report.live_stats is inorder_report.run_stats
        summary = tracker_report.summary()
        assert "live runtime" in summary
        assert "stopped: schedule exhausted" in summary

    def test_on_window_callback_streams_stats(self, small_testbed):
        seen = []
        service = make_service(small_testbed, max_configs=2, min_configs=1)
        service.run(on_window=seen.append)
        service.close()
        assert [w.window_index for w in seen] == list(range(8))


class TestBackpressure:
    def test_overload_drops_are_accounted_not_fatal(self, small_testbed):
        service = make_service(
            small_testbed,
            max_configs=3,
            min_configs=1,
            batches_per_window=6,
            queue_capacity=2,
            drop_policy="oldest",
        )
        report = service.run()
        service.close()
        stats = report.run_stats
        assert stats.dropped_batches > 0
        assert stats.dropped_volume > 0
        assert stats.max_queue_depth == 2
        assert report.ingest.offered_volume == pytest.approx(
            report.ingest.accepted_volume + report.ingest.dropped_volume
        )
        # Dropped windows shrink evidence but never bias: attribution
        # still exists and clusters still refine.
        assert report.localization is not None
        assert report.run_stats.windows == len(report.windows)


class TestController:
    def test_entropy_short_circuit(self, small_testbed):
        service = make_service(
            small_testbed,
            max_configs=6,
            min_configs=2,
            stop_entropy=99.0,
            strategy="greedy",
        )
        report = service.run()
        service.close()
        assert report.run_stats.configs_consumed == 2
        assert "entropy" in report.run_stats.stop_reason

    def test_adaptive_run_still_exhausts_schedule(self, small_testbed):
        service = make_service(small_testbed, strategy="greedy", max_configs=4)
        report = service.run()
        service.close()
        assert report.run_stats.configs_consumed == 4
        assert sorted(service.deployed) == [0, 1, 2, 3]

    def test_dwell_accounting(self, inorder_report):
        # 5 configurations at the paper-derived 82.5-minute dwell.
        assert inorder_report.run_stats.dwell_minutes == pytest.approx(5 * 82.5)


class TestChurn:
    def test_churn_triggers_remeasurement(self, small_testbed):
        service = make_service(
            small_testbed,
            max_configs=4,
            min_configs=1,
            churn_events=((6, 0.5),),
        )
        report = service.run()
        service.close()
        assert len(service.churn_log) == 1
        entry = service.churn_log[0]
        assert entry["misplaced"] > 0.02
        assert entry["remeasured"]
        assert report.run_stats.remeasurements == 1
        # Remeasuring deployed configurations costs their dwell again.
        assert report.run_stats.dwell_minutes > 4 * 82.5

    def test_zero_drift_churn_is_ignored(self, small_testbed):
        service = make_service(
            small_testbed,
            max_configs=3,
            min_configs=1,
            churn_events=((4, 0.0),),
        )
        report = service.run()
        service.close()
        assert service.churn_log[0]["misplaced"] == 0.0
        assert not service.churn_log[0]["remeasured"]
        assert report.run_stats.remeasurements == 0


class TestLiveAttributor:
    def test_observe_before_config_raises(self):
        attributor = LiveAttributor({1, 2, 3})
        with pytest.raises(LiveServiceError):
            attributor.observe({"l1": 1.0}, 1.0)

    def test_empty_universe_rejected(self):
        with pytest.raises(LiveServiceError):
            LiveAttributor([])

    def test_entropy_zero_before_observations(self):
        attributor = LiveAttributor({1, 2})
        assert attributor.attribution() is None
        assert attributor.attribution_entropy() == 0.0

    def test_reads_reuse_the_solve_until_evidence_changes(self):
        from repro.bgp.announcement import AnnouncementConfig

        attributor = LiveAttributor({1, 2, 3})
        config = AnnouncementConfig(announced=frozenset({"l1", "l2"}))
        attributor.apply_config(
            config, {"l1": frozenset({1, 2}), "l2": frozenset({3})}
        )
        attributor.observe({"l1": 2.0, "l2": 1.0}, 3.0)
        first = attributor.attribution()
        assert first is not None and attributor.solves == 1
        assert attributor.attribution() is first  # nothing new: cached
        attributor.observe({"l2": 4.0}, 4.0)
        assert attributor.attribution() is not first  # a window: re-solve
        assert attributor.solves == 2
        attributor.attribution(force=True)
        assert attributor.solves == 3

    def test_serialization_round_trip(self, small_testbed):
        service = make_service(small_testbed, max_configs=2, min_configs=1)
        service.run()
        payload = service.attributor.as_serializable()
        restored = LiveAttributor.from_serializable(payload)
        assert restored.universe == service.attributor.universe
        assert restored.clusters() == service.attributor.clusters()
        original = service.attributor.attribution()
        rebuilt = restored.attribution()
        assert [c.estimated_volume for c in rebuilt.ranked] == pytest.approx(
            [c.estimated_volume for c in original.ranked]
        )
        service.close()
