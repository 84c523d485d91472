"""Tests for the figure runners on a small evaluation run.

The shared run uses the small testbed's schedule truncated to keep the
suite quick; shape assertions mirror DESIGN.md §4.
"""

import pytest

from repro.analysis.figures import (
    EvaluationRun,
    FigureResult,
    Series,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
)
from repro.errors import SchedulingError


@pytest.fixture(scope="module")
def run(request):
    small_testbed = request.getfixturevalue("small_testbed")
    return EvaluationRun(testbed=small_testbed)


class TestEvaluationRun:
    def test_caches_full_schedule(self, run):
        assert len(run.catchment_history) == len(run.schedule)
        assert len(run.compliance) == len(run.schedule)

    def test_universe_from_first_config(self, run):
        first = run.catchment_history[0]
        union = frozenset().union(*first.values())
        assert union == run.universe

    def test_phase_boundaries_ordered(self, run):
        boundaries = run.phase_boundaries()
        assert (
            boundaries["locations"]
            < boundaries["prepending"]
            < boundaries["poisoning"]
        )

    def test_location_subset_history_filters(self, run):
        links = run.testbed.origin.link_ids
        subset = links[:-1]
        history = run.location_subset_history(subset)
        assert history
        assert len(history) < len(run.catchment_history)
        for catchments in history:
            assert set(catchments) <= set(subset)

    def test_max_configs_truncates(self, small_testbed):
        short = EvaluationRun(testbed=small_testbed, max_configs=5)
        assert len(short.schedule) == 5

    def test_zero_configs_allowed_to_be_empty_error(self, small_testbed):
        with pytest.raises(Exception):
            EvaluationRun(testbed=small_testbed, max_configs=0)

    def test_negative_max_configs_rejected(self, small_testbed):
        with pytest.raises(SchedulingError, match="at least 1"):
            EvaluationRun(testbed=small_testbed, max_configs=-1)


class TestSeries:
    def test_from_values(self):
        series = Series.from_values("s", [5.0, 4.0])
        assert series.points == ((1.0, 5.0), (2.0, 4.0))

    def test_series_named(self):
        result = FigureResult(
            figure_id="f",
            title="t",
            xlabel="x",
            ylabel="y",
            series=[Series("a", ((1.0, 1.0),))],
        )
        assert result.series_named("a").points == ((1.0, 1.0),)
        with pytest.raises(KeyError):
            result.series_named("b")


class TestFigure3(object):
    def test_three_phase_series(self, run):
        result = figure3(run)
        names = [series.name for series in result.series]
        assert names == [
            "Locations",
            "Locations and prepending",
            "Locations, prepending, and poisoning",
        ]

    def test_each_phase_shrinks_the_tail(self, run):
        result = figure3(run)
        # Max cluster size must not grow across phases.
        maxima = [max(x for x, _ in series.points) for series in result.series]
        assert maxima[0] >= maxima[1] >= maxima[2]

    def test_ccdfs_valid(self, run):
        for series in figure3(run).series:
            ys = [y for _, y in series.points]
            assert ys[0] == 1.0
            assert ys == sorted(ys, reverse=True)


class TestFigure4:
    def test_mean_curve_nonincreasing(self, run):
        result = figure4(run)
        means = [y for _, y in result.series_named("Mean Cluster Size").points]
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))

    def test_one_point_per_config(self, run):
        result = figure4(run)
        for series in result.series:
            assert len(series.points) == len(run.schedule)

    def test_phase_boundary_notes(self, run):
        result = figure4(run)
        assert any("locations" in note for note in result.notes)


class TestFigures5and6:
    def test_fewer_locations_larger_final_clusters(self, run):
        result = figure5(run, max_subsets=3)
        all_curve = result.series_named("All locations").points
        four_curve = result.series_named("Four locations").points
        assert all_curve[-1][1] <= four_curve[-1][1]

    def test_fewer_locations_fewer_configs(self, run):
        result = figure5(run, max_subsets=3)
        assert len(result.series_named("All locations").points) > len(
            result.series_named("Four locations").points
        )

    def test_min_max_envelope_ordering(self, run):
        result = figure5(run, max_subsets=4)
        minimum = result.series_named("Four locations (min)").points
        maximum = result.series_named("Four locations (max)").points
        for (_, low), (_, high) in zip(minimum, maximum):
            assert low <= high + 1e-9

    def test_figure6_ccdf_tails(self, run):
        result = figure6(run, max_subsets=3)
        for series in result.series:
            ys = [y for _, y in series.points]
            assert ys == sorted(ys, reverse=True)


class TestFigure7:
    def test_groups_present(self, run):
        result = figure7(run)
        assert len(result.series) >= 2

    def test_cdf_monotone(self, run):
        for series in figure7(run).series:
            ys = [y for _, y in series.points]
            assert ys == sorted(ys)

    def test_note_compares_near_vs_far(self, run):
        result = figure7(run)
        assert any("paper: 1.85 vs 2.64" in note for note in result.notes)


class TestFigure8:
    def test_greedy_beats_random_median_early(self, run):
        result = figure8(run, num_random_sequences=20, max_steps=12, seed=1)
        median = result.series_named("Random (median of means)").points
        greedy = result.series_named("Iterative Algorithm").points
        horizon = min(10, len(median), len(greedy)) - 1
        assert greedy[horizon][1] <= median[horizon][1]

    def test_percentile_band_ordering(self, run):
        result = figure8(run, num_random_sequences=20, max_steps=10, seed=2)
        p25 = result.series_named("25th Percentile").points
        p75 = result.series_named("75th Percentile").points
        for (_, low), (_, high) in zip(p25, p75):
            assert low <= high + 1e-9


class TestFigure9:
    def test_both_criteria_below_relationship(self, run):
        result = figure9(run)
        both = dict(result.series_named("Best Relationship & Shortest").points)
        # CDF of 'both' sits left of (or equal to) 'relationship': median
        # compliance for both ≤ relationship.
        relationship = [
            x for x, _ in result.series_named("Best Relationship").points
        ]
        both_xs = [x for x in both]
        assert min(both_xs) <= min(relationship) or max(both_xs) <= max(
            relationship
        )

    def test_high_compliance(self, run):
        result = figure9(run)
        relationship_points = result.series_named("Best Relationship").points
        # Most configurations should see >80% compliance.
        assert max(x for x, _ in relationship_points) > 0.8


class TestFigure10:
    def test_three_distributions(self, run):
        result = figure10(run, num_placements=20, num_sources=10, seed=3)
        assert len(result.series) == 3

    def test_curves_cumulative(self, run):
        result = figure10(run, num_placements=20, num_sources=10, seed=3)
        for series in result.series:
            ys = [y for _, y in series.points]
            assert ys == sorted(ys)
            assert ys[-1] <= 1.0 + 1e-9

    def test_most_traffic_in_small_clusters(self, run):
        result = figure10(run, num_placements=20, num_sources=10, seed=3)
        for series in result.series:
            points = dict(series.points)
            assert points[8.0] > 0.5
