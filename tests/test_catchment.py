"""Tests for catchment conflict resolution and smax imputation."""

import pytest

from repro.errors import MeasurementError
from repro.measurement.catchment import (
    KIND_BGP,
    KIND_TRACEROUTE,
    CatchmentHistory,
    CatchmentObservation,
    assignment_to_catchments,
    resolve_observations,
)


def obs(source, link, kind=KIND_BGP):
    return CatchmentObservation(source_as=source, link=link, kind=kind)


class TestObservation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(MeasurementError):
            CatchmentObservation(source_as=1, link="l1", kind="dns")


class TestResolution:
    def test_single_observation(self):
        assignment, stats = resolve_observations([obs(1, "l1")])
        assert assignment == {1: "l1"}
        assert stats.multi_catchment_fraction == 0.0

    def test_bgp_outranks_traceroute(self):
        """§IV-c: 'we give higher priority to BGP measurements'."""
        observations = [
            obs(1, "l1", KIND_BGP),
            obs(1, "l2", KIND_TRACEROUTE),
            obs(1, "l2", KIND_TRACEROUTE),
            obs(1, "l2", KIND_TRACEROUTE),
        ]
        assignment, stats = resolve_observations(observations)
        assert assignment[1] == "l1"
        assert stats.sources_in_multiple_catchments == 1

    def test_majority_among_same_kind(self):
        observations = [
            obs(1, "l1", KIND_TRACEROUTE),
            obs(1, "l2", KIND_TRACEROUTE),
            obs(1, "l2", KIND_TRACEROUTE),
        ]
        assignment, _ = resolve_observations(observations)
        assert assignment[1] == "l2"

    def test_tie_breaks_by_link_id(self):
        observations = [obs(1, "l2"), obs(1, "l1")]
        assignment, _ = resolve_observations(observations)
        assert assignment[1] == "l1"

    def test_multi_catchment_fraction(self):
        """Paper reports 2.28% of ASes in multiple catchments on average."""
        observations = [
            obs(1, "l1"),
            obs(1, "l2"),  # source 1: conflicted
            obs(2, "l1"),
            obs(2, "l1"),  # source 2: consistent
        ]
        _, stats = resolve_observations(observations)
        assert stats.sources_observed == 2
        assert stats.multi_catchment_fraction == pytest.approx(0.5)

    def test_empty_observations(self):
        assignment, stats = resolve_observations([])
        assert assignment == {}
        assert stats.sources_observed == 0
        assert stats.multi_catchment_fraction == 0.0


class TestAssignmentToCatchments:
    def test_inversion(self):
        catchments = assignment_to_catchments(
            {1: "l1", 2: "l1", 3: "l2"}, ["l1", "l2", "l3"]
        )
        assert catchments["l1"] == frozenset({1, 2})
        assert catchments["l2"] == frozenset({3})
        assert catchments["l3"] == frozenset()

    def test_unlisted_link_still_included(self):
        catchments = assignment_to_catchments({1: "lX"}, ["l1"])
        assert catchments["lX"] == frozenset({1})


class TestCatchmentHistory:
    def test_restricts_to_universe(self):
        history = CatchmentHistory([1, 2])
        history.add({1: "l1", 99: "l2"})
        assert history.missing_sources() == {0: frozenset({2})}

    def test_rejects_empty_universe(self):
        with pytest.raises(MeasurementError):
            CatchmentHistory([])

    def test_smax_finds_most_frequent_companion(self):
        """§IV-d: smax is the source sharing s's catchment most often."""
        history = CatchmentHistory([1, 2, 3])
        history.add({1: "l1", 2: "l1", 3: "l2"})
        history.add({1: "l1", 2: "l1", 3: "l1"})
        history.add({1: "l2", 2: "l2", 3: "l1"})
        assert history.smax_of(1) == 2

    def test_smax_none_when_always_alone(self):
        history = CatchmentHistory([1, 2])
        history.add({1: "l1", 2: "l2"})
        assert history.smax_of(1) is None

    def test_imputation_fills_missing_from_smax(self):
        history = CatchmentHistory([1, 2])
        history.add({1: "l1", 2: "l1"})   # 2 is 1's smax
        history.add({2: "l2"})            # 1 missing here
        imputed = history.imputed_assignments()
        assert imputed[1][1] == "l2"

    def test_imputation_leaves_unfillable_missing(self):
        history = CatchmentHistory([1, 2])
        history.add({1: "l1", 2: "l1"})
        history.add({})  # both missing: smax also unobserved
        imputed = history.imputed_assignments()
        assert 1 not in imputed[1]

    def test_catchment_maps_shapes(self):
        history = CatchmentHistory([1, 2, 3])
        history.add({1: "l1", 2: "l1", 3: "l2"})
        maps = history.catchment_maps(["l1", "l2"])
        assert maps[0]["l1"] == frozenset({1, 2})
        assert maps[0]["l2"] == frozenset({3})

    def test_len(self):
        history = CatchmentHistory([1])
        history.add({1: "l1"})
        history.add({1: "l2"})
        assert len(history) == 2


def reference_imputation(history):
    """§IV-d imputation computed with the per-source :meth:`smax_of` scan."""
    completed = []
    for assignment in history._assignments:
        filled = dict(assignment)
        for source in history.universe - set(assignment):
            smax = history.smax_of(source)
            if smax is not None and smax in assignment:
                filled[source] = assignment[smax]
        completed.append(filled)
    return completed


def random_history(rng, sources, links, configs, visibility):
    history = CatchmentHistory(range(sources))
    for _ in range(configs):
        history.add(
            {
                source: rng.choice(links)
                for source in range(sources)
                if rng.random() < visibility
            }
        )
    return history


class TestGroupedSmaxEquivalence:
    """The grouped smax used by imputation equals the reference scan."""

    @pytest.mark.parametrize("seed", range(25))
    def test_grouped_smax_matches_smax_of(self, seed):
        import random

        rng = random.Random(seed)
        # Few links and few configurations make count ties common.
        history = random_history(
            rng,
            sources=rng.randint(2, 12),
            links=["l1", "l2", "l3"][: rng.randint(1, 3)],
            configs=rng.randint(1, 6),
            visibility=rng.uniform(0.3, 1.0),
        )
        groups = history._link_groups()
        for source in sorted(history.universe):
            assert history._grouped_smax(source, groups) == history.smax_of(source)

    @pytest.mark.parametrize("seed", range(25))
    def test_imputation_matches_reference(self, seed):
        import random

        rng = random.Random(1000 + seed)
        history = random_history(
            rng,
            sources=rng.randint(2, 20),
            links=["a", "b", "c", "d"],
            configs=rng.randint(1, 10),
            visibility=rng.uniform(0.2, 0.95),
        )
        assert history.imputed_assignments() == reference_imputation(history)

    def test_ties_break_toward_smallest_asn(self):
        history = CatchmentHistory([1, 2, 3, 4])
        history.add({1: "l1", 3: "l1", 2: "l2", 4: "l2"})
        history.add({1: "l1", 2: "l1", 3: "l2", 4: "l2"})
        history.add({2: "l1", 3: "l1", 4: "l1"})  # 1 missing
        groups = history._link_groups()
        # 2 and 3 each shared 1's catchment once: the smaller ASN wins.
        assert history.smax_of(1) == 2
        assert history._grouped_smax(1, groups) == 2
        assert history.imputed_assignments()[2][1] == "l1"

    def test_grouped_smax_none_when_always_alone(self):
        history = CatchmentHistory([1, 2])
        history.add({1: "l1", 2: "l2"})
        history.add({2: "l1"})
        assert history._grouped_smax(1, history._link_groups()) is None
        assert 1 not in history.imputed_assignments()[1]
