"""Tests for targeted large-cluster splitting (§V-B future work)."""

import pytest

from repro.core.clustering import ClusterState
from repro.core.configgen import ScheduleParams, generate_schedule
from repro.core.pipeline import build_testbed
from repro.core.refinement import LargeClusterSplitter, SplitReport
from repro.topology import TopologyParams


@pytest.fixture(scope="module")
def prepared():
    """Testbed plus a cluster state refined with the base schedule."""
    testbed = build_testbed(
        seed=3,
        topology_params=TopologyParams(
            num_tier1=6, num_transit=60, num_stub=300, seed=3
        ),
    )
    schedule = generate_schedule(
        testbed.origin, testbed.graph, ScheduleParams(include_poisoning=False)
    )
    outcomes = [testbed.simulator.simulate(config) for config in schedule[:64]]
    universe = outcomes[0].covered_ases
    state = ClusterState(universe)
    for outcome in outcomes:
        state.refine_with_catchments(
            {link: m & universe for link, m in outcome.catchments.items()}
        )
    return testbed, state, outcomes[0]


class TestTargetSelection:
    def test_targets_exclude_origin_and_providers(self, prepared):
        testbed, state, baseline = prepared
        splitter = LargeClusterSplitter(testbed.simulator, testbed.origin)
        providers = {link.provider for link in testbed.origin.links}
        for cluster in state.clusters():
            if len(cluster) <= splitter.threshold:
                continue
            targets = splitter.poison_targets_for_cluster(cluster, baseline)
            assert testbed.origin.asn not in targets
            assert not set(targets) & providers

    def test_target_budget_respected(self, prepared):
        testbed, state, baseline = prepared
        splitter = LargeClusterSplitter(
            testbed.simulator, testbed.origin, max_targets_per_cluster=2
        )
        for cluster in state.clusters():
            if len(cluster) > splitter.threshold:
                targets = splitter.poison_targets_for_cluster(cluster, baseline)
                assert len(targets) <= 2

    def test_invalid_params(self, prepared):
        testbed, _, _ = prepared
        with pytest.raises(ValueError):
            LargeClusterSplitter(testbed.simulator, testbed.origin, threshold=0)
        with pytest.raises(ValueError):
            LargeClusterSplitter(
                testbed.simulator, testbed.origin, max_targets_per_cluster=0
            )


class TestSplitting:
    def test_reduces_large_clusters(self, prepared):
        testbed, state, _ = prepared
        working = state.copy()
        before_max = max(working.sizes())
        splitter = LargeClusterSplitter(
            testbed.simulator, testbed.origin, threshold=5,
            max_targets_per_cluster=4,
        )
        report = splitter.split(working, max_rounds=4, max_configs=40)
        assert report.rounds >= 1
        assert report.configs_deployed
        assert report.initial_max == before_max
        assert report.final_max < report.initial_max
        assert max(working.sizes()) == report.final_max

    def test_refinement_never_merges(self, prepared):
        testbed, state, _ = prepared
        working = state.copy()
        clusters_before = {min(c): c for c in working.clusters()}
        splitter = LargeClusterSplitter(testbed.simulator, testbed.origin)
        splitter.split(working, max_rounds=2, max_configs=10)
        for cluster in working.clusters():
            parent = next(
                old for old in clusters_before.values() if cluster & old
            )
            assert cluster <= parent

    def test_config_budget_respected(self, prepared):
        testbed, state, _ = prepared
        working = state.copy()
        splitter = LargeClusterSplitter(testbed.simulator, testbed.origin)
        report = splitter.split(working, max_rounds=10, max_configs=5)
        assert len(report.configs_deployed) <= 5

    def test_noop_when_no_large_clusters(self, prepared):
        testbed, state, _ = prepared
        working = state.copy()
        huge_threshold = max(working.sizes()) + 1
        splitter = LargeClusterSplitter(
            testbed.simulator, testbed.origin, threshold=huge_threshold
        )
        report = splitter.split(working)
        assert report.rounds == 0
        assert report.configs_deployed == []
        assert report.initial_max == 0

    def test_catchment_history_usable_for_localization(self, prepared):
        testbed, state, _ = prepared
        working = state.copy()
        splitter = LargeClusterSplitter(testbed.simulator, testbed.origin)
        report = splitter.split(working, max_rounds=1, max_configs=5)
        assert len(report.outcomes) == len(report.configs_deployed)
        for outcome in report.outcomes:
            assert set(outcome.catchments) <= set(testbed.origin.link_ids)

    def test_absence_signal_helps(self, prepared):
        """With the absence signal the splitter separates single-homed
        cones; without it, it can only do as well or worse."""
        testbed, state, _ = prepared
        with_signal = state.copy()
        without_signal = state.copy()
        LargeClusterSplitter(
            testbed.simulator, testbed.origin, max_targets_per_cluster=4,
            use_absence_signal=True,
        ).split(with_signal, max_rounds=4, max_configs=40)
        LargeClusterSplitter(
            testbed.simulator, testbed.origin, max_targets_per_cluster=4,
            use_absence_signal=False,
        ).split(without_signal, max_rounds=4, max_configs=40)
        assert with_signal.mean_size() <= without_signal.mean_size() + 1e-9


class TestSplitReport:
    def test_empty_report_properties(self):
        report = SplitReport()
        assert report.initial_max == 0
        assert report.final_max == 0
