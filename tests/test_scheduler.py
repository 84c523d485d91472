"""Tests for announcement scheduling (random vs greedy, §V-C).

The greedy schedules come from the strategy plugins driven directly
through :func:`repro.strategy.run_strategy`, the way the Figure 8 and
``headline`` code calls them.
"""

import pytest

from repro.core.scheduler import (
    mean_cluster_size_curve,
    percentile_curve,
    random_schedule_curves,
)
from repro.errors import ReproError, SchedulingError, StrategyError
from repro.strategy import (
    GreedyStrategy,
    VolumeGreedyStrategy,
    run_strategy,
    weighted_cost,
)

UNIVERSE = list(range(16))
# Catchment histories of varying usefulness: config 0 splits in half,
# config 1 splits quarters, config 2 is redundant with 0, config 3 fine.
HISTORY = [
    {"l1": frozenset(range(8)), "l2": frozenset(range(8, 16))},
    {"l1": frozenset(list(range(4)) + list(range(8, 12))),
     "l2": frozenset(list(range(4, 8)) + list(range(12, 16)))},
    {"l1": frozenset(range(8)), "l2": frozenset(range(8, 16))},
    {"l1": frozenset(range(0, 16, 2)), "l2": frozenset(range(1, 16, 2))},
]


def greedy_run(universe, history, max_steps=None):
    """The §V-C greedy schedule: (order, mean-size curve)."""
    result = run_strategy(
        GreedyStrategy(), universe, history,
        max_steps=max_steps, check_converged=False,
    )
    return result.order, result.curve


def volume_greedy_run(universe, history, volume_by_as, max_steps=None):
    """The §VIII volume-aware greedy: (order, weighted-cost curve)."""
    result = run_strategy(
        VolumeGreedyStrategy(volume_by_as=volume_by_as),
        universe,
        history,
        max_steps=max_steps,
        curve_metric=lambda state: weighted_cost(state, volume_by_as),
        check_converged=False,
    )
    return result.order, result.curve


class TestMeanCurve:
    def test_curve_decreases_monotonically(self):
        curve = mean_cluster_size_curve(UNIVERSE, HISTORY)
        assert curve == sorted(curve, reverse=True)

    def test_curve_values(self):
        curve = mean_cluster_size_curve(UNIVERSE, HISTORY)
        assert curve[0] == pytest.approx(8.0)   # halves
        assert curve[1] == pytest.approx(4.0)   # quarters
        assert curve[2] == pytest.approx(4.0)   # redundant
        assert curve[3] == pytest.approx(2.0)

    def test_custom_order(self):
        curve = mean_cluster_size_curve(UNIVERSE, HISTORY, order=[3, 0])
        assert curve[0] == pytest.approx(8.0)
        assert curve[1] == pytest.approx(4.0)

    def test_rejects_bad_order(self):
        with pytest.raises(SchedulingError):
            mean_cluster_size_curve(UNIVERSE, HISTORY, order=[0, 0])
        with pytest.raises(SchedulingError):
            mean_cluster_size_curve(UNIVERSE, HISTORY, order=[99])


class TestRandomSchedules:
    def test_shapes(self):
        curves = random_schedule_curves(UNIVERSE, HISTORY, num_sequences=5, seed=1)
        assert len(curves) == 5
        assert all(len(curve) == len(HISTORY) for curve in curves)

    def test_deterministic_per_seed(self):
        a = random_schedule_curves(UNIVERSE, HISTORY, num_sequences=3, seed=2)
        b = random_schedule_curves(UNIVERSE, HISTORY, num_sequences=3, seed=2)
        assert a == b

    def test_max_steps(self):
        curves = random_schedule_curves(
            UNIVERSE, HISTORY, num_sequences=2, seed=1, max_steps=2
        )
        assert all(len(curve) == 2 for curve in curves)

    def test_rejects_zero_sequences(self):
        with pytest.raises(SchedulingError):
            random_schedule_curves(UNIVERSE, HISTORY, num_sequences=0)

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_rejects_max_steps_below_one(self, max_steps):
        # A negative value used to slice the shuffled order from the end
        # and silently drop configurations.
        with pytest.raises(ReproError):
            random_schedule_curves(
                UNIVERSE, HISTORY, num_sequences=2, max_steps=max_steps
            )

    def test_all_orders_end_at_same_partition(self):
        curves = random_schedule_curves(UNIVERSE, HISTORY, num_sequences=10, seed=3)
        finals = {curve[-1] for curve in curves}
        assert len(finals) == 1  # refinement is order-independent at the end


class TestGreedy:
    def test_greedy_picks_most_informative_first(self):
        order, curve = greedy_run(UNIVERSE, HISTORY)
        # Config 1 creates 2 splits immediately (quarters)?  Config 0 and 1
        # both split once per catchment; greedy must never pick the
        # redundant config 2 before config 0.
        assert 2 not in order or order.index(0) < order.index(2)

    def test_greedy_curve_matches_replay(self):
        order, curve = greedy_run(UNIVERSE, HISTORY)
        replay = mean_cluster_size_curve(UNIVERSE, HISTORY, order=order)
        assert curve == pytest.approx(replay)

    def test_greedy_stops_when_nothing_splits(self):
        order, _ = greedy_run(UNIVERSE, HISTORY)
        # Config 2 is fully redundant with config 0: once 0, 1, 3 are
        # deployed nothing remains to split, so the greedy stops early.
        assert len(order) == 3
        assert 2 not in order

    def test_greedy_beats_or_ties_random_median_early(self):
        _, greedy_curve = greedy_run(UNIVERSE, HISTORY, max_steps=2)
        random_curves = random_schedule_curves(
            UNIVERSE, HISTORY, num_sequences=30, seed=4, max_steps=2
        )
        median = percentile_curve(random_curves, 50.0)
        assert greedy_curve[0] <= median[0]
        assert greedy_curve[1] <= median[1]

    def test_max_steps_respected(self):
        order, curve = greedy_run(UNIVERSE, HISTORY, max_steps=1)
        assert len(order) == 1 and len(curve) == 1

    def test_rejects_empty_history(self):
        with pytest.raises(StrategyError):
            greedy_run(UNIVERSE, [])


class TestVolumeAwareGreedy:
    def test_prioritizes_high_volume_cluster_splits(self):
        # Heavy volume on sources 8..15; config 0 separates them from the
        # rest, config 3 splits everything evenly.  The volume-aware
        # scheduler should first deploy whichever cuts weighted cost most.
        volume = {asn: (10.0 if asn >= 8 else 0.1) for asn in UNIVERSE}
        order, curve = volume_greedy_run(UNIVERSE, HISTORY, volume, max_steps=3)
        assert curve == sorted(curve, reverse=True)
        assert order  # deployed something

    def test_weighted_cost_decreases(self):
        volume = {asn: 1.0 for asn in UNIVERSE}
        _, curve = volume_greedy_run(UNIVERSE, HISTORY, volume)
        assert curve == sorted(curve, reverse=True)

    def test_empty_volume_falls_back_to_split_gain(self):
        # Historical bug: with no volume evidence the weighted cost is 0
        # everywhere, ``cost < best_cost`` never fired, and the scheduler
        # returned an empty order.  It now falls back to the unweighted
        # split gain and reproduces the plain greedy order.
        order, curve = volume_greedy_run(UNIVERSE, HISTORY, {})
        greedy_order, _ = greedy_run(UNIVERSE, HISTORY)
        assert order == greedy_order
        assert len(curve) == len(order)
        assert all(value == 0.0 for value in curve)  # weighted cost stays 0

    def test_all_zero_volume_falls_back_to_split_gain(self):
        volume = {asn: 0.0 for asn in UNIVERSE}
        order, _ = volume_greedy_run(UNIVERSE, HISTORY, volume)
        greedy_order, _ = greedy_run(UNIVERSE, HISTORY)
        assert order == greedy_order

    def test_partially_zero_volume_still_refines_cold_clusters(self):
        # Volume concentrated on 0..7; config 0 isolates them, after which
        # every weighted reduction is zero — the schedule must keep
        # splitting the zero-volume half via the split-gain fallback
        # instead of stopping with half the universe unrefined.
        volume = {asn: (5.0 if asn < 8 else 0.0) for asn in UNIVERSE}
        order, _ = volume_greedy_run(UNIVERSE, HISTORY, volume)
        assert len(order) == 3  # everything splittable got deployed
        assert 2 not in order  # the redundant config still never runs


class TestPercentileCurve:
    def test_median_of_known_curves(self):
        curves = [[1.0, 1.0], [2.0, 3.0], [3.0, 5.0]]
        assert percentile_curve(curves, 50.0) == [2.0, 3.0]

    def test_extremes(self):
        curves = [[1.0], [2.0], [3.0]]
        assert percentile_curve(curves, 0.0) == [1.0]
        assert percentile_curve(curves, 100.0) == [3.0]

    def test_pads_short_curves_with_final_value(self):
        # A curve that converged early holds its final value; the band
        # extends to the longest curve instead of truncating to the
        # shortest.
        curves = [[1.0, 2.0], [3.0]]
        assert percentile_curve(curves, 50.0) == [2.0, 2.5]
        assert percentile_curve(curves, 100.0) == [3.0, 3.0]

    def test_ignores_empty_curves(self):
        curves = [[1.0, 2.0], []]
        assert percentile_curve(curves, 50.0) == [1.0, 2.0]

    def test_rejects_empty(self):
        with pytest.raises(SchedulingError):
            percentile_curve([], 50.0)

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            percentile_curve([[1.0]], 200.0)


class TestEngineIntegration:
    def test_measured_history_replays_through_cache(self, small_testbed):
        from repro.bgp.announcement import AnnouncementConfig, anycast_all
        from repro.core.engine import SimulationEngine
        from repro.core.evidence import Evidence

        engine = SimulationEngine(small_testbed.simulator)
        links = small_testbed.origin.link_ids
        configs = [anycast_all(links)] + [
            AnnouncementConfig(announced=frozenset(links) - {link})
            for link in sorted(links)[:3]
        ]
        evidence = Evidence.build(configs, engine.simulate_many(configs))
        assert len(evidence.maps) == len(configs)
        assert all(
            members <= evidence.universe
            for catchments in evidence.maps
            for members in catchments.values()
        )
        simulated = engine.stats.configs_simulated
        replay = Evidence.build(configs, engine.simulate_many(configs))
        # Re-measuring replays configurations the engine already saw.
        assert engine.stats.configs_simulated == simulated
        assert replay == evidence
        order, curve = greedy_run(sorted(replay.universe), replay.maps)
        assert curve == sorted(curve, reverse=True)

    def test_empty_configs_rejected(self):
        from repro.core.evidence import Evidence

        with pytest.raises(SchedulingError):
            Evidence.build([], [])


class TestPinnedSchedules:
    """Orders and curves of the retired ``GreedyScheduler`` and
    ``VolumeAwareGreedyScheduler`` shims, recorded on the conftest's
    small testbed before they were deleted.  The direct ``run_strategy``
    calls that replaced them must reproduce them exactly."""

    GREEDY = (
        [0, 6, 7, 8, 18, 17, 12, 15, 20, 14, 16],
        [
            41.0, 20.5, 12.8125, 9.318181818181818, 7.592592592592593,
            6.612903225806452, 6.029411764705882, 5.694444444444445,
            5.394736842105263, 5.256410256410256, 5.125,
        ],
    )
    VOLUME_GREEDY = (
        [0, 8, 7, 10, 20, 18, 12, 6, 15, 16, 17, 14],
        [
            9534.142857142857, 4888.142857142856, 3761.9999999999995,
            2966.142857142857, 2578.0000000000005, 2321.2857142857147,
            2207.8571428571436, 2179.7142857142862, 2156.285714285715,
            2136.0000000000014, 2129.000000000002, 2122.5714285714303,
        ],
    )

    @pytest.fixture(scope="class")
    def evidence(self, small_testbed):
        from repro.core.configgen import ScheduleParams, generate_schedule
        from repro.core.engine import SimulationEngine
        from repro.core.evidence import Evidence

        schedule = generate_schedule(
            small_testbed.origin, small_testbed.graph, ScheduleParams()
        )[:24]
        evidence = Evidence.build(
            schedule,
            SimulationEngine(small_testbed.simulator).simulate_many(schedule),
        )
        universe, history = sorted(evidence.universe), evidence.maps
        volume = {asn: ((asn * 7919) % 13) / 7.0 for asn in universe}
        return universe, history, volume

    def test_greedy_reproduces_pinned_run(self, evidence):
        universe, history, _ = evidence
        assert greedy_run(universe, history) == self.GREEDY
        order, curve = self.GREEDY
        assert greedy_run(universe, history, max_steps=5) == (
            order[:5], curve[:5]
        )

    def test_volume_greedy_reproduces_pinned_run(self, evidence):
        universe, history, volume = evidence
        assert volume_greedy_run(universe, history, volume) == self.VOLUME_GREEDY
        order, curve = self.VOLUME_GREEDY
        assert volume_greedy_run(universe, history, volume, max_steps=4) == (
            order[:4], curve[:4]
        )
