"""End-to-end chaos suite: fault plans must degrade the tracker gracefully.

Every bundled plan is driven through the full batch pipeline; the run must
finish, the final clusters must still partition the universe, and the
invariant monitor must report no violations.  Determinism is the second
pillar: an identical plan produces a byte-identical report, and an empty
plan with injection enabled matches the no-injector report exactly.
"""

import random

import pytest

from repro.core.pipeline import SpoofTracker
from repro.errors import CheckpointCorruptionError
from repro.faults import (
    BUNDLED_PLANS,
    CHECKPOINT_CORRUPTION,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.live import (
    LiveTracebackService,
    ReplayScenario,
    load_checkpoint,
)
from repro.live.checkpoint import backup_path
from repro.spoof.sources import single_source_placement


def _placement(testbed, seed=3):
    return single_source_placement(
        sorted(testbed.topology.stubs), random.Random(seed)
    )


def _run(testbed, injector=None, max_configs=10, measured=False):
    tracker = SpoofTracker(testbed, injector=injector)
    try:
        return tracker.run(
            max_configs=max_configs,
            placement=_placement(testbed),
            measured=measured,
        )
    finally:
        tracker.engine.close()


def _assert_partition(report):
    seen = set()
    for cluster in report.clusters:
        assert not cluster & seen
        seen |= cluster
    assert seen == set(report.universe)


class TestBundledPlans:
    @pytest.mark.parametrize("name", sorted(BUNDLED_PLANS))
    def test_every_bundled_plan_degrades_gracefully(self, small_testbed, name):
        injector = FaultInjector(BUNDLED_PLANS[name])
        report = _run(small_testbed, injector=injector)
        assert len(report.steps) == 10
        _assert_partition(report)
        assert report.resilience is not None
        assert report.resilience.plan_name == name
        assert report.resilience.healthy
        assert report.resilience.violations == []
        assert report.resilience.invariant_checks > 0

    def test_measurement_loss_degrades_but_never_misleads(self, small_testbed):
        chaotic = _run(
            small_testbed,
            injector=FaultInjector(BUNDLED_PLANS["partial-measurement"]),
        )
        clean = _run(small_testbed)
        assert chaotic.resilience.degraded_configs > 0
        # Skipped (degraded) refinement steps can only make the partition
        # coarser, never different-but-equally-fine: every clean cluster
        # lies inside exactly one chaotic cluster.
        assert chaotic.mean_cluster_size >= clean.mean_cluster_size - 1e-9
        for fine in clean.clusters:
            containers = [c for c in chaotic.clusters if fine <= c]
            assert len(containers) == 1

    def test_measured_mode_survives_partial_measurement(self, small_testbed):
        injector = FaultInjector(BUNDLED_PLANS["partial-measurement"])
        report = _run(
            small_testbed, injector=injector, max_configs=6, measured=True
        )
        assert len(report.steps) == 6
        _assert_partition(report)
        assert report.resilience.healthy


class TestDeterminism:
    def test_same_plan_same_seed_identical_report(self, small_testbed):
        plan = BUNDLED_PLANS["mixed"]
        first = _run(small_testbed, injector=FaultInjector(plan))
        second = _run(small_testbed, injector=FaultInjector(plan))
        assert first.clusters == second.clusters
        assert first.steps == second.steps
        assert first.catchment_history == second.catchment_history
        # A spec's draws hash its position in the plan's spec tuple, so
        # adding, removing or reordering specs in ``mixed`` moves every
        # later spec's faults; the pin makes such a reshuffle visible.
        assert first.resilience.faults_injected == {"measurement-loss": 4}
        assert (
            first.resilience.faults_injected
            == second.resilience.faults_injected
        )

    def test_empty_plan_matches_no_injector_exactly(self, small_testbed):
        clean = _run(small_testbed)
        empty = _run(small_testbed, injector=FaultInjector(FaultPlan()))
        assert empty.clusters == clean.clusters
        assert empty.steps == clean.steps
        assert empty.catchment_history == clean.catchment_history
        assert clean.resilience is None
        assert empty.resilience is not None
        assert empty.resilience.total_faults == 0
        assert empty.resilience.healthy

    def test_scaled_to_zero_is_fault_free(self, small_testbed):
        plan = BUNDLED_PLANS["mixed"].scaled(0.0)
        clean = _run(small_testbed)
        quiet = _run(small_testbed, injector=FaultInjector(plan))
        assert quiet.clusters == clean.clusters
        assert quiet.resilience.total_faults == 0


class TestLiveChaos:
    def _scenario(self, path, **overrides):
        kwargs = dict(
            seed=5,
            max_configs=4,
            min_configs=1,
            strategy="schedule",
            checkpoint_every=7,
            checkpoint_path=path,
        )
        kwargs.update(overrides)
        return ReplayScenario(**kwargs)

    def test_live_run_with_mixed_plan_completes(self, small_testbed, tmp_path):
        injector = FaultInjector(BUNDLED_PLANS["mixed"])
        service = LiveTracebackService(
            scenario=self._scenario(str(tmp_path / "c.json")),
            testbed=small_testbed,
            injector=injector,
        )
        report = service.run()
        service.close()
        assert report.resilience is not None
        assert report.resilience.healthy
        assert report.windows
        # Pinned like the batch run's draws (see TestDeterminism).
        assert report.resilience.faults_injected == {
            "checkpoint-corruption": 1,
            "route-churn": 1,
            "volume-noise": 6,
        }

    def test_corrupted_checkpoint_rolls_back_and_converges(
        self, small_testbed, tmp_path
    ):
        # Gate corruption to ordinal >= 1: the second (final periodic)
        # checkpoint is torn mid-write, the rotated .1 from ordinal 0
        # stays intact, and recovery resumes from it.
        plan = FaultPlan(
            name="late-corruption",
            specs=(
                FaultSpec(kind=CHECKPOINT_CORRUPTION, rate=1.0, start=1),
            ),
        )
        path = str(tmp_path / "torn.json")
        service = LiveTracebackService(
            scenario=self._scenario(path),
            testbed=small_testbed,
            injector=FaultInjector(plan),
        )
        full = service.run()
        service.close()
        assert service.checkpoint_corruptions == 1

        restored = load_checkpoint(path)
        assert restored.restored_via_rollback
        resumed = restored.run()
        restored.close()
        assert resumed.windows == full.windows
        assert resumed.run_stats == full.run_stats
        assert resumed.clusters == full.clusters
        assert resumed.resilience.checkpoint_rollbacks == 1

    def test_every_checkpoint_corrupted_raises(self, small_testbed, tmp_path):
        plan = FaultPlan(
            name="total-corruption",
            specs=(FaultSpec(kind=CHECKPOINT_CORRUPTION, rate=1.0),),
        )
        path = str(tmp_path / "doomed.json")
        service = LiveTracebackService(
            scenario=self._scenario(path),
            testbed=small_testbed,
            injector=FaultInjector(plan),
        )
        service.run()
        service.close()
        assert service.checkpoint_corruptions >= 2
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(path)

    def test_fault_plan_travels_inside_the_checkpoint(
        self, small_testbed, tmp_path
    ):
        plan = BUNDLED_PLANS["volume-noise"]
        path = str(tmp_path / "plan.json")
        service = LiveTracebackService(
            scenario=self._scenario(path),
            testbed=small_testbed,
            injector=FaultInjector(plan),
        )
        full = service.run()
        service.close()
        restored = load_checkpoint(path)
        assert restored.injector is not None
        assert restored.injector.plan == plan
        resumed = restored.run()
        restored.close()
        assert resumed.windows == full.windows
        assert resumed.run_stats == full.run_stats

    def test_backup_rotation_leaves_bak_on_disk(self, small_testbed, tmp_path):
        path = str(tmp_path / "rotate.json")
        service = LiveTracebackService(
            scenario=self._scenario(path),
            testbed=small_testbed,
        )
        service.run()
        service.close()
        import os

        assert os.path.exists(backup_path(path))
