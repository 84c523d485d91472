"""Tests for spoofed-volume attribution to clusters."""

import random

import numpy as np
import pytest

import repro.core.localization as localization
from repro.core.clustering import clusters_from_catchment_history
from repro.core.labels import Columns, LabelledCatchments
from repro.core.localization import (
    LocalizationQuality,
    SpoofLocalizer,
    estimate_cluster_volumes,
    traffic_fraction_by_cluster_size,
)
from repro.errors import ClusteringError
from repro.spoof.sources import SourcePlacement
from repro.spoof.traffic import link_volumes

# Two configurations whose catchments fully separate four sources into
# four singleton clusters.
HISTORY = [
    {"l1": frozenset({1, 2}), "l2": frozenset({3, 4})},
    {"l1": frozenset({1, 3}), "l2": frozenset({2, 4})},
]
UNIVERSE = [1, 2, 3, 4]


def final_clusters():
    return clusters_from_catchment_history(UNIVERSE, HISTORY).clusters()


class TestEstimateVolumes:
    def test_recovers_single_source(self):
        placement = SourcePlacement({3: 1})
        volumes = [link_volumes(placement, catchments) for catchments in HISTORY]
        clusters = final_clusters()
        estimates, residual = estimate_cluster_volumes(clusters, HISTORY, volumes)
        assert residual == pytest.approx(0.0, abs=1e-9)
        for cluster, estimate in zip(clusters, estimates):
            expected = 1.0 if cluster == frozenset({3}) else 0.0
            assert estimate == pytest.approx(expected, abs=1e-9)

    def test_recovers_multiple_sources(self):
        placement = SourcePlacement({1: 1, 4: 3})
        volumes = [link_volumes(placement, catchments) for catchments in HISTORY]
        clusters = final_clusters()
        estimates, _ = estimate_cluster_volumes(clusters, HISTORY, volumes)
        by_cluster = dict(zip(clusters, estimates))
        assert by_cluster[frozenset({1})] == pytest.approx(0.25, abs=1e-9)
        assert by_cluster[frozenset({4})] == pytest.approx(0.75, abs=1e-9)

    def test_estimates_nonnegative(self):
        placement = SourcePlacement({2: 1})
        volumes = [link_volumes(placement, catchments) for catchments in HISTORY]
        estimates, _ = estimate_cluster_volumes(final_clusters(), HISTORY, volumes)
        assert all(estimate >= 0.0 for estimate in estimates)

    def test_rejects_mismatched_histories(self):
        with pytest.raises(ClusteringError):
            estimate_cluster_volumes(final_clusters(), HISTORY, [{}])

    def test_rejects_empty_clusters(self):
        with pytest.raises(ClusteringError):
            estimate_cluster_volumes([], HISTORY, [{}, {}])


def _row_by_row_system(clusters, catchment_history, volume_history):
    """The NNLS system built one cell at a time: the specification the
    set-intersection builder of ``estimate_cluster_volumes`` must match
    (matrix, row order, straddle error and its text)."""
    rows, rhs = [], []
    representative = [min(cluster) for cluster in clusters]
    for catchments, volumes in zip(catchment_history, volume_history):
        member_link = {}
        for link, catchment in catchments.items():
            for asn in catchment:
                member_link[asn] = link
        for link in sorted(volumes):
            row = []
            for cluster, repr_asn in zip(clusters, representative):
                inside = member_link.get(repr_asn) == link
                if inside and member_link.get(max(cluster), link) != link:
                    raise ClusteringError(
                        f"cluster containing AS {repr_asn} straddles "
                        f"catchments of link {link!r}"
                    )
                row.append(1.0 if inside else 0.0)
            rows.append(row)
            rhs.append(volumes[link])
    return np.array(rows, dtype=float), np.array(rhs, dtype=float)


def _random_system(rng):
    """Catchments that may overlap or leave ASes out, volumes that may
    name unannounced links, and clusters that may straddle."""
    universe = rng.sample(range(1, 100000), rng.randint(3, 30))
    history, volume_history = [], []
    for _ in range(rng.randint(1, 6)):
        links = [f"l{k}" for k in range(rng.randint(1, 4))]
        catchments = {link: set() for link in links}
        for asn in universe:
            if rng.random() < 0.9:
                catchments[rng.choice(links)].add(asn)
            if rng.random() < 0.05:
                catchments[rng.choice(links)].add(asn)  # overlap
        history.append({link: frozenset(c) for link, c in catchments.items()})
        measured = rng.sample(links + ["lx"], rng.randint(1, len(links)))
        volume_history.append({link: rng.random() for link in measured})
    if rng.random() < 0.6:
        clusters = clusters_from_catchment_history(universe, history).clusters()
    else:
        shuffled = rng.sample(universe, len(universe))
        cuts = sorted(
            rng.sample(range(1, len(universe)), rng.randint(0, 2))
        )
        bounds = [0] + cuts + [len(universe)]
        clusters = [
            frozenset(shuffled[a:b]) for a, b in zip(bounds, bounds[1:])
        ]
    return clusters, history, volume_history


class TestSystemBuilder:
    def test_matches_row_by_row_builder(self, monkeypatch):
        """Same float matrix and targets, or the same straddle error."""
        captured = []
        real_nnls = localization.nnls

        def capture(matrix, target):
            captured.append((matrix, target))
            return real_nnls(matrix, target)

        monkeypatch.setattr(localization, "nnls", capture)
        rng = random.Random(11)
        solved = straddled = 0
        for _ in range(300):
            clusters, history, volumes = _random_system(rng)
            try:
                want = _row_by_row_system(clusters, history, volumes)
            except ClusteringError as error:
                with pytest.raises(ClusteringError) as got:
                    estimate_cluster_volumes(clusters, history, volumes)
                assert str(got.value) == str(error)
                straddled += 1
                continue
            captured.clear()
            estimate_cluster_volumes(clusters, history, volumes)
            (matrix, target), = captured
            assert matrix.dtype == want[0].dtype
            assert np.array_equal(matrix, want[0])
            assert np.array_equal(target, want[1])
            solved += 1
        assert solved > 50 and straddled > 50

    def test_straddling_cluster_named(self):
        cluster = frozenset({2, 9})
        history = [{"l1": frozenset({2}), "l2": frozenset({9})}]
        with pytest.raises(ClusteringError, match="AS 2 straddles.*'l1'"):
            estimate_cluster_volumes(
                [cluster], history, [{"l1": 1.0, "l2": 0.0}]
            )

    def test_first_straddler_in_row_major_order_named(self):
        """Row (link) order beats column order: the second cluster
        straddles in the first row, the first cluster only in the second."""
        clusters = [frozenset({2, 9}), frozenset({4, 17})]
        history = [{"l1": frozenset({9, 4}), "l2": frozenset({2, 17})}]
        with pytest.raises(ClusteringError, match="AS 4 straddles.*'l1'"):
            estimate_cluster_volumes(
                clusters, history, [{"l1": 1.0, "l2": 0.0}]
            )

    def test_straddle_caught_for_small_int_asns(self):
        """Small ints iterate in value order, so probing a cluster's
        first-iterated member probed its representative and never fired."""
        clusters = [frozenset({1, 2}), frozenset({3, 4})]
        with pytest.raises(ClusteringError, match="AS 1 straddles.*'l1'"):
            estimate_cluster_volumes(
                clusters, HISTORY, [{"l1": 1.0, "l2": 0.0}] * 2
            )

    def test_rejects_empty_volume_observations(self):
        with pytest.raises(ClusteringError, match="no volume observations"):
            estimate_cluster_volumes(final_clusters(), HISTORY, [{}, {}])

    def test_labelled_maps_match_row_by_row_builder(self, monkeypatch):
        """Evidence maps build from their label rows: the same matrix,
        targets and straddle errors as the row-by-row specification.
        Their catchments are disjoint and restricted to a universe that
        may hold ASes no cluster does."""
        captured = []
        real_nnls = localization.nnls

        def capture(matrix, target):
            captured.append((matrix, target))
            return real_nnls(matrix, target)

        monkeypatch.setattr(localization, "nnls", capture)
        rng = random.Random(23)
        solved = straddled = 0
        for _ in range(200):
            clusters, history, volumes = _random_system(rng)
            universe = sorted(set().union(*clusters))
            columns = Columns(universe + rng.sample(range(200000, 200100), 3))
            disjoint = []
            for catchments in history:
                seen = set()
                maps = {}
                for link, members in catchments.items():
                    maps[link] = frozenset(members - seen)
                    seen |= members
                disjoint.append(LabelledCatchments.of(maps, columns))
            plain = [dict(maps) for maps in disjoint]
            try:
                want = _row_by_row_system(clusters, plain, volumes)
            except ClusteringError as error:
                with pytest.raises(ClusteringError) as got:
                    estimate_cluster_volumes(clusters, disjoint, volumes)
                assert str(got.value) == str(error)
                straddled += 1
                continue
            captured.clear()
            estimate_cluster_volumes(clusters, disjoint, volumes)
            (matrix, target), = captured
            assert np.array_equal(matrix, want[0])
            assert np.array_equal(target, want[1])
            solved += 1
        assert solved > 30 and straddled > 30


class TestSpoofLocalizer:
    def test_ranks_true_source_first(self):
        placement = SourcePlacement({4: 5})
        volumes = [link_volumes(placement, catchments) for catchments in HISTORY]
        localizer = SpoofLocalizer(final_clusters(), HISTORY)
        result = localizer.localize(volumes)
        assert result.ranked[0].members == frozenset({4})
        assert result.ranked[0].estimated_volume > 0.9

    def test_suspect_ases_cover_volume(self):
        placement = SourcePlacement({1: 1, 2: 1})
        volumes = [link_volumes(placement, catchments) for catchments in HISTORY]
        result = SpoofLocalizer(final_clusters(), HISTORY).localize(volumes)
        suspects = result.suspect_ases(volume_fraction=0.99)
        assert {1, 2} <= suspects

    def test_suspect_ases_empty_when_no_volume(self):
        volumes = [{"l1": 0.0, "l2": 0.0} for _ in HISTORY]
        result = SpoofLocalizer(final_clusters(), HISTORY).localize(volumes)
        assert result.suspect_ases() == frozenset()

    def test_suspect_fraction_validation(self):
        volumes = [{"l1": 0.0, "l2": 0.0} for _ in HISTORY]
        result = SpoofLocalizer(final_clusters(), HISTORY).localize(volumes)
        with pytest.raises(ValueError):
            result.suspect_ases(volume_fraction=0.0)

    def test_evaluate_against_placement(self):
        placement = SourcePlacement({4: 5})
        volumes = [link_volumes(placement, catchments) for catchments in HISTORY]
        result = SpoofLocalizer(final_clusters(), HISTORY).localize(volumes)
        quality = result.evaluate_against(placement)
        assert quality.recall == 1.0
        assert quality.precision == 1.0

    def test_top_limits_results(self):
        placement = SourcePlacement({4: 5})
        volumes = [link_volumes(placement, catchments) for catchments in HISTORY]
        result = SpoofLocalizer(final_clusters(), HISTORY).localize(volumes)
        assert len(result.top(2)) == 2


class TestQuality:
    def test_metrics(self):
        quality = LocalizationQuality(
            true_sources=4, sources_found=3, suspect_set_size=6
        )
        assert quality.recall == pytest.approx(0.75)
        assert quality.precision == pytest.approx(0.5)

    def test_degenerate(self):
        quality = LocalizationQuality(0, 0, 0)
        assert quality.recall == 1.0
        assert quality.precision == 1.0


class TestTrafficFractionBySize:
    def test_single_source_all_in_its_cluster_size(self):
        clusters = [frozenset({1}), frozenset({2, 3}), frozenset({4})]
        placement = SourcePlacement({2: 1})
        fractions = traffic_fraction_by_cluster_size(placement, clusters)
        assert fractions[1] == pytest.approx(0.0)
        assert fractions[2] == pytest.approx(1.0)

    def test_cumulative_and_monotonic(self):
        clusters = [frozenset({1}), frozenset({2, 3}), frozenset({4, 5, 6})]
        placement = SourcePlacement({1: 1, 2: 1, 4: 2})
        fractions = traffic_fraction_by_cluster_size(placement, clusters)
        values = [fractions[size] for size in sorted(fractions)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_max_size_truncates(self):
        clusters = [frozenset({1}), frozenset(range(2, 10))]
        placement = SourcePlacement({1: 1, 2: 1})
        fractions = traffic_fraction_by_cluster_size(placement, clusters, max_size=3)
        assert max(fractions) == 3
        assert fractions[3] == pytest.approx(0.5)
