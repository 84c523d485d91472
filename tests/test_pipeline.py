"""Tests for the end-to-end SpoofTracker pipeline."""

import random
from dataclasses import replace

import pytest

from repro.bgp.announcement import anycast_all
from repro.core.configgen import ScheduleParams
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.errors import ReproError
from repro.spoof.sources import single_source_placement, uniform_placement
from repro.topology.generator import TopologyParams


class TestBuildTestbed:
    def test_wires_everything(self, small_testbed):
        assert small_testbed.origin.asn in small_testbed.graph
        assert len(small_testbed.origin) == 5
        assert small_testbed.campaign.origin is small_testbed.origin

    def test_seed_overrides_topology_seed(self):
        testbed = build_testbed(
            seed=9,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=20, num_stub=60, seed=0
            ),
            num_links=3,
            num_vantages=5,
            num_probes=10,
        )
        assert testbed.topology.params.seed == 9

    def test_seed_override_preserves_every_params_field(self):
        # Regression: the override used to rebuild TopologyParams from a
        # hand-enumerated field list, silently resetting any field not on
        # the list.  Non-default values must all survive.
        params = TopologyParams(
            num_tier1=4,
            num_transit=20,
            num_stub=60,
            transit_provider_choices=(1, 3),
            stub_provider_choices=(2, 2),
            transit_peering_probability=0.31,
            stub_multihome_fraction=0.77,
            seed=0,
        )
        testbed = build_testbed(
            seed=9,
            topology_params=params,
            num_links=3,
            num_vantages=5,
            num_probes=10,
        )
        assert testbed.topology.params == replace(params, seed=9)

    def test_spec_rebuilds_identical_simulator(self):
        testbed = build_testbed(
            seed=7,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=20, num_stub=60, seed=7
            ),
            num_links=3,
            num_vantages=5,
            num_probes=10,
        )
        assert testbed.spec is not None
        rebuilt = testbed.spec.build().simulator
        config = anycast_all(testbed.origin.link_ids)
        assert rebuilt.simulate(config).routes == testbed.simulator.simulate(
            config
        ).routes

    def test_deterministic(self):
        kwargs = dict(
            seed=4,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=20, num_stub=60, seed=4
            ),
            num_links=3,
            num_vantages=5,
            num_probes=10,
        )
        a = build_testbed(**kwargs)
        b = build_testbed(**kwargs)
        assert [l.provider for l in a.origin.links] == [
            l.provider for l in b.origin.links
        ]
        assert a.collectors.vantages == b.collectors.vantages


class TestTrackerGroundTruth:
    @pytest.fixture(scope="class")
    def report(self, request):
        testbed = build_testbed(
            seed=6,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=30, num_stub=120, seed=6
            ),
            num_links=4,
            num_vantages=8,
            num_probes=20,
        )
        tracker = SpoofTracker.from_testbed(testbed)
        placement = single_source_placement(
            sorted(testbed.topology.stubs), random.Random(3)
        )
        report = tracker.run(max_configs=40, placement=placement)
        request.cls.placement = placement
        return report

    def test_universe_is_anycast_coverage(self, report):
        assert len(report.universe) > 100

    def test_steps_track_every_config(self, report):
        assert len(report.steps) == 40
        assert report.steps[0].phase == "locations"

    def test_mean_size_decreases_overall(self, report):
        means = [step.mean_cluster_size for step in report.steps]
        assert means[-1] < means[0]
        # Refinement can only shrink clusters: monotone non-increasing.
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))

    def test_clusters_partition_universe(self, report):
        seen = set()
        for cluster in report.clusters:
            assert not cluster & seen
            seen |= cluster
        assert seen == set(report.universe)

    def test_localization_finds_single_source(self, report):
        result = report.localization
        assert result is not None
        top = result.ranked[0]
        assert self.placement.spoofing_ases <= top.members

    def test_summary_text(self, report):
        text = report.summary()
        assert "configurations deployed : 40" in text
        assert "mean cluster size" in text
        assert "most-suspect clusters" in text


class TestTrackerModes:
    def test_empty_schedule_rejected(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        with pytest.raises(ReproError):
            tracker.run(max_configs=0)

    def test_schedule_params_respected(self, small_testbed):
        tracker = SpoofTracker(
            small_testbed, ScheduleParams(include_poisoning=False)
        )
        assert all(c.phase != "poisoning" for c in tracker.schedule)

    def test_measured_mode_runs(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        report = tracker.run(max_configs=6, measured=True)
        assert report.measured
        assert len(report.universe) > 20
        assert len(report.steps) == 6

    def test_measured_mode_with_placement(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        placement = uniform_placement(
            sorted(small_testbed.topology.stubs), 3, random.Random(8)
        )
        report = tracker.run(max_configs=6, placement=placement, measured=True)
        assert report.localization is not None

    def test_headline_properties(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        report = tracker.run(max_configs=10)
        assert report.mean_cluster_size >= 1.0
        assert 0.0 <= report.singleton_cluster_fraction <= 1.0

    def test_split_threshold_shrinks_tail(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        plain = tracker.run(max_configs=26)
        split = tracker.run(max_configs=26, split_threshold=5, split_budget=15)
        assert split.split_report is not None
        assert len(split.split_report.configs_deployed) <= 15
        assert max(len(c) for c in split.clusters) <= max(
            len(c) for c in plain.clusters
        )
        assert len(split.catchment_history) == 26 + len(
            split.split_report.configs_deployed
        )
        assert any(step.phase == "split" for step in split.steps)

    def test_split_steps_show_per_config_progression(self, small_testbed):
        # Regression: split-phase StepStats used to be appended after the
        # splitter had fully refined the state, so every split step showed
        # the identical final counts.  They must now track the per-config
        # snapshots: cluster counts non-decreasing, and actually moving.
        tracker = SpoofTracker(small_testbed)
        report = tracker.run(max_configs=26, split_threshold=5, split_budget=15)
        split_steps = [s for s in report.steps if s.phase == "split"]
        assert len(split_steps) >= 2
        counts = [s.num_clusters for s in split_steps]
        means = [s.mean_cluster_size for s in split_steps]
        assert counts == sorted(counts)  # refinement only adds clusters
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))
        assert len(set(counts)) > 1  # not the final state repeated
        # The last snapshot is the final refined state.
        assert split_steps[-1].num_clusters == len(report.clusters)

    def test_report_engine_stats_and_repeat_is_free(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        first = tracker.run(max_configs=8)
        assert first.engine_stats is not None
        assert first.engine_stats.configs_simulated >= 8
        assert "simulation engine" in first.summary()
        second = tracker.run(max_configs=8)
        # Same schedule through the same engine: zero new fixpoints.
        assert second.engine_stats.configs_simulated == 0
        assert second.engine_stats.cache_hits == 8
        assert second.clusters == first.clusters

    def test_split_with_placement_localizes(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        placement = single_source_placement(
            sorted(small_testbed.topology.stubs), random.Random(2)
        )
        report = tracker.run(
            max_configs=26, placement=placement, split_threshold=5
        )
        assert report.localization is not None
        quality = report.localization.evaluate_against(placement)
        assert quality.recall == 1.0

    def test_split_skipped_in_measured_mode(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        report = tracker.run(max_configs=5, measured=True, split_threshold=5)
        assert report.split_report is None


class TestGeographyTestbed:
    def test_geography_changes_catchments(self):
        params = TopologyParams(num_tier1=4, num_transit=30, num_stub=120, seed=8)
        kwargs = dict(
            seed=8, topology_params=params, num_links=4,
            num_vantages=8, num_probes=20,
        )
        flat = build_testbed(**kwargs)
        geo = build_testbed(**kwargs, with_geography=True)
        assert geo.policy.geography is not None
        from repro.bgp.announcement import anycast_all

        config = anycast_all(flat.origin.link_ids)
        flat_outcome = flat.simulator.simulate(config)
        geo_outcome = geo.simulator.simulate(config)
        assert flat_outcome.covered_ases == geo_outcome.covered_ases
        moved = sum(
            1
            for asn in flat_outcome.covered_ases
            if flat_outcome.catchment_of(asn) != geo_outcome.catchment_of(asn)
        )
        assert moved > 0
