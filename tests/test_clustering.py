"""Tests for cluster refinement (§III-B)."""

import random

import pytest

from clustering_reference import ReferenceClusterState
from repro.core.clustering import ClusterState, clusters_from_catchment_history
from repro.core.labels import Columns, LabelledCatchments
from repro.errors import ClusteringError


class TestConstruction:
    def test_starts_as_single_cluster(self):
        state = ClusterState(range(1, 11))
        assert state.num_clusters() == 1
        assert state.sizes() == [10]

    def test_rejects_empty_universe(self):
        with pytest.raises(ClusteringError):
            ClusterState([])

    def test_universe_property(self):
        state = ClusterState([1, 2, 3])
        assert state.universe == frozenset({1, 2, 3})


class TestRefinement:
    def test_single_split(self):
        state = ClusterState(range(10))
        splits = state.refine({0, 1, 2})
        assert splits == 1
        assert sorted(state.sizes()) == [3, 7]

    def test_subset_catchment_is_noop(self):
        state = ClusterState(range(10))
        state.refine(range(10))
        assert state.num_clusters() == 1

    def test_disjoint_catchment_is_noop(self):
        state = ClusterState(range(10))
        splits = state.refine({100, 200})
        assert splits == 0
        assert state.num_clusters() == 1

    def test_paper_figure1_example(self):
        """Figure 1's three configurations split 9 sources into clusters."""
        sources = set(range(9))
        state = ClusterState(sources)
        # Config 1: catchments of m, n, p.
        state.refine({0, 1, 2})
        state.refine({3, 4, 5})
        state.refine({6, 7, 8})
        assert state.num_clusters() == 3
        # Config 2 (n withdrawn): n's sources split between m and p,
        # partitioning {3,4,5} into {3} and {4,5}.
        state.refine({0, 1, 2, 3})
        state.refine({4, 5, 6, 7, 8})
        assert state.num_clusters() == 4
        assert state.cluster_of(3) == frozenset({3})
        assert state.cluster_of(4) == frozenset({4, 5})
        assert state.cluster_of(6) == frozenset({6, 7, 8})

    def test_refine_with_catchments_is_deterministic(self):
        catchments_a = {"l2": {4, 5}, "l1": {1, 2, 3}}
        catchments_b = {"l1": {1, 2, 3}, "l2": {4, 5}}
        state_a = ClusterState(range(1, 7))
        state_b = ClusterState(range(1, 7))
        state_a.refine_with_catchments(catchments_a)
        state_b.refine_with_catchments(catchments_b)
        assert state_a.clusters() == state_b.clusters()

    def test_cluster_of_unknown_raises(self):
        state = ClusterState([1])
        with pytest.raises(ClusteringError):
            state.cluster_of(99)

    def test_refinement_only_refines(self):
        """Refinement never merges: each new cluster is a subset of the
        cluster its members were in before."""
        state = ClusterState(range(20))
        before = {asn: state.cluster_of(asn) for asn in range(20)}
        state.refine({1, 3, 5, 7})
        state.refine({2, 3, 4})
        for asn in range(20):
            assert state.cluster_of(asn) <= before[asn]


class TestMetrics:
    def make_partitioned(self):
        state = ClusterState(range(10))
        state.refine({0})          # sizes 1, 9
        state.refine({1, 2, 3})    # sizes 1, 3, 6
        return state

    def test_mean_size(self):
        assert self.make_partitioned().mean_size() == pytest.approx(10 / 3)

    def test_weighted_mean_size(self):
        # (1·1 + 3·3 + 6·6) / 10 = 46/10
        assert self.make_partitioned().mean_size_weighted() == pytest.approx(4.6)

    def test_singleton_fraction(self):
        assert self.make_partitioned().singleton_fraction() == pytest.approx(1 / 3)

    def test_percentile_bounds(self):
        state = self.make_partitioned()
        assert state.size_percentile(0) == 1.0
        assert state.size_percentile(100) == 6.0
        with pytest.raises(ValueError):
            state.size_percentile(101)

    def test_sizes_descending(self):
        assert self.make_partitioned().sizes() == [6, 3, 1]

    def test_clusters_sorted_largest_first(self):
        clusters = self.make_partitioned().clusters()
        assert [len(c) for c in clusters] == [6, 3, 1]


class TestCopy:
    def test_copy_independent(self):
        state = ClusterState(range(10))
        clone = state.copy()
        clone.refine({0, 1})
        assert state.num_clusters() == 1
        assert clone.num_clusters() == 2

    def test_copy_preserves_partition(self):
        state = ClusterState(range(10))
        state.refine({0, 1, 2})
        clone = state.copy()
        assert clone.clusters() == state.clusters()


class TestHistoryHelper:
    def test_builds_final_partition(self):
        history = [
            {"l1": {1, 2}, "l2": {3, 4}},
            {"l1": {1}, "l2": {2, 3, 4}},
        ]
        state = clusters_from_catchment_history([1, 2, 3, 4], history)
        assert state.sizes() == [2, 1, 1]
        assert state.cluster_of(3) == frozenset({3, 4})


class TestMatchesSetReference:
    """The array partition against the set-based reference, step by step
    on seeded random catchment maps."""

    @staticmethod
    def random_step(rng, universe):
        """A configuration's maps: overlaps, outsiders and degraded links."""
        links = [f"l{k}" for k in rng.sample(range(6), rng.randint(1, 4))]
        maps = {link: set() for link in links}
        for asn in universe:
            if rng.random() < 0.85:
                maps[rng.choice(links)].add(asn)
            if rng.random() < 0.1:
                maps[rng.choice(links)].add(asn)  # overlap
        for link in links:
            if rng.random() < 0.3:
                maps[link].add(rng.randint(1000, 1100))  # outside
        degraded = frozenset(link for link in links if rng.random() < 0.2)
        return {link: frozenset(m) for link, m in maps.items()}, degraded

    @staticmethod
    def assert_same(state, reference):
        assert state.clusters() == reference.clusters()
        assert state.num_clusters() == reference.num_clusters()
        assert state.sizes() == reference.sizes()
        assert repr(state.mean_size()) == repr(reference.mean_size())
        assert repr(state.mean_size_weighted()) == repr(
            reference.mean_size_weighted()
        )
        assert repr(state.size_percentile(90.0)) == repr(
            reference.size_percentile(90.0)
        )
        assert repr(state.singleton_fraction()) == repr(
            reference.singleton_fraction()
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_refinement_matches_reference(self, seed):
        rng = random.Random(seed)
        universe = rng.sample(range(1, 900), rng.randint(1, 60))
        state, reference = ClusterState(universe), ReferenceClusterState(universe)
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.2:
                catchment = rng.sample(universe + [2000, 2001], 3)
                assert state.refine(catchment) == reference.refine(catchment)
            else:
                maps, degraded = self.random_step(rng, universe)
                assert state.refine_with_catchments(
                    maps, degraded
                ) == reference.refine_with_catchments(maps, degraded)
            self.assert_same(state, reference)
            for asn in rng.sample(universe, min(3, len(universe))):
                assert state.cluster_of(asn) == reference.cluster_of(asn)
            clone, reference_clone = state.copy(), reference.copy()
            maps, degraded = self.random_step(rng, universe)
            clone.refine_with_catchments(maps, degraded)
            reference_clone.refine_with_catchments(maps, degraded)
            self.assert_same(clone, reference_clone)
            self.assert_same(state, reference)

    @pytest.mark.parametrize("seed", range(6))
    def test_labelled_maps_refine_like_their_sets(self, seed):
        """Evidence maps take the row path; their decoded sets the set
        path, and degraded links are skipped on both."""
        rng = random.Random(100 + seed)
        universe = rng.sample(range(1, 900), rng.randint(2, 60))
        columns = Columns(universe)
        state, reference = ClusterState(columns), ReferenceClusterState(universe)
        for _ in range(rng.randint(1, 10)):
            links = [f"l{k}" for k in range(rng.randint(1, 4))]
            maps = {link: set() for link in links}
            for asn in universe:
                if rng.random() < 0.9:
                    maps[rng.choice(links)].add(asn)
            labelled = LabelledCatchments.of(
                {link: frozenset(m) for link, m in maps.items()}, columns
            )
            degraded = frozenset(link for link in links if rng.random() < 0.25)
            assert state.refine_with_catchments(
                labelled, degraded
            ) == reference.refine_with_catchments(dict(labelled), degraded)
            self.assert_same(state, reference)
