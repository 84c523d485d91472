"""Cross-module integration scenarios exercising the full stack."""

import random

import pytest

from repro.analysis.figures import EvaluationRun, figure3, figure8
from repro.bgp.announcement import anycast_all
from repro.core.clustering import ClusterState
from repro.core.configgen import ScheduleParams
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.spoof.honeypot import AmplificationHoneypot
from repro.spoof.inference import ValidSourceInference
from repro.spoof.sources import single_source_placement, uniform_placement
from repro.spoof.traffic import SpoofedTrafficGenerator, link_volumes
from repro.strategy import GreedyStrategy, run_strategy
from repro.topology.generator import TopologyParams
from repro.topology.serialization import dumps_as_rel, loads_as_rel


class TestGroundTruthVsMeasured:
    """The measured pipeline should roughly agree with ground truth."""

    def test_measured_catchments_track_ground_truth(self, small_testbed):
        outcome = small_testbed.simulator.simulate(
            anycast_all(small_testbed.origin.link_ids)
        )
        measurement = small_testbed.campaign.measure(outcome)
        matches = sum(
            1
            for source, link in measurement.assignment.items()
            if outcome.catchment_of(source) == link
        )
        assert matches / len(measurement.assignment) > 0.9

    def test_measured_clusters_coarser_but_consistent(self, small_testbed):
        """Measured catchments cover fewer sources, but for the sources
        they do cover, refinement should separate the same pairs the
        ground truth separates (mostly)."""
        tracker = SpoofTracker(small_testbed)
        truth = tracker.run(max_configs=8)
        measured = tracker.run(max_configs=8, measured=True)
        shared = measured.universe & truth.universe
        assert len(shared) > 20
        truth_state = ClusterState(truth.universe)
        for catchments in truth.catchment_history:
            truth_state.refine_with_catchments(catchments)
        same_pair_checked = 0
        agreements = 0
        shared_list = sorted(shared)[:30]
        measured_state = ClusterState(measured.universe)
        for catchments in measured.catchment_history:
            measured_state.refine_with_catchments(catchments)
        for i, a in enumerate(shared_list):
            for b in shared_list[i + 1 :]:
                truth_same = b in truth_state.cluster_of(a)
                measured_same = b in measured_state.cluster_of(a)
                same_pair_checked += 1
                if truth_same == measured_same:
                    agreements += 1
        assert agreements / same_pair_checked > 0.6


class TestHoneypotLocalizationLoop:
    """Honeypot observations feed localization end to end."""

    def test_honeypot_volumes_localize_single_source(self):
        testbed = build_testbed(
            seed=13,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=25, num_stub=100, seed=13
            ),
            num_links=4,
            num_vantages=8,
            num_probes=20,
        )
        tracker = SpoofTracker(testbed, ScheduleParams(include_poisoning=False))
        placement = single_source_placement(
            sorted(testbed.topology.stubs), random.Random(2)
        )
        # Observe honeypot volumes per configuration instead of using
        # the noiseless link_volumes path.
        configs = tracker.schedule[:30]
        outcomes = [testbed.simulator.simulate(config) for config in configs]
        universe = outcomes[0].covered_ases
        history = [
            {
                link: frozenset(members & universe)
                for link, members in outcome.catchments.items()
            }
            for outcome in outcomes
        ]
        honeypot = AmplificationHoneypot(service="dns")
        volume_history = []
        for index, outcome in enumerate(outcomes):
            generator = SpoofedTrafficGenerator(
                placement, outcome.catchments, rng=random.Random(index)
            )
            report = honeypot.observe(generator.packets(400))
            volumes = {link: 0.0 for link in outcome.catchments}
            volumes.update(report.bytes_by_link)
            volume_history.append(volumes)
        state = ClusterState(universe)
        for catchments in history:
            state.refine_with_catchments(catchments)
        from repro.core.localization import SpoofLocalizer

        localizer = SpoofLocalizer(state.clusters(), history)
        result = localizer.localize(volume_history)
        top = result.ranked[0]
        assert placement.spoofing_ases <= top.members

    def test_inference_volumes_approximate_honeypot(self, small_testbed):
        outcome = small_testbed.simulator.simulate(
            anycast_all(small_testbed.origin.link_ids)
        )
        placement = uniform_placement(
            sorted(small_testbed.topology.stubs), 5, random.Random(4)
        )
        expected = link_volumes(placement, outcome.catchments, total_volume=5.0)
        inference = ValidSourceInference(
            outcome.catchments, rng=random.Random(5)
        )
        spoofed_flows = []
        for asn, count in placement.sources_by_as.items():
            link = outcome.catchment_of(asn)
            if link is None:
                continue
            # Spoofers forge random addresses: claimed AS is effectively
            # arbitrary; use an unallocated AS number.
            spoofed_flows.extend((link, 10**7) for _ in range(count))
        volumes, quality = inference.simulate_flows(
            sorted(outcome.covered_ases), spoofed_flows
        )
        assert quality.recall == 1.0
        for link, volume in expected.items():
            assert volumes[link] == pytest.approx(volume)


class TestScheduleReuse:
    def test_greedy_on_evaluation_run_matches_direct(self, small_testbed):
        run = EvaluationRun(testbed=small_testbed, max_configs=20)
        result = run_strategy(
            GreedyStrategy(),
            sorted(run.universe),
            run.catchment_history,
            max_steps=5,
            check_converged=False,
        )
        order, curve = result.order, result.curve
        assert len(order) == len(curve) <= 5
        assert curve == sorted(curve, reverse=True)

    def test_figures_reuse_one_run(self, small_testbed):
        run = EvaluationRun(testbed=small_testbed, max_configs=30)
        fig3 = figure3(run)
        fig8 = figure8(run, num_random_sequences=10, max_steps=8)
        assert fig3.series and fig8.series


class TestSerializationRoundtripThroughPipeline:
    def test_topology_survives_as_rel_roundtrip(self, small_testbed):
        graph = small_testbed.graph
        restored = loads_as_rel(dumps_as_rel(graph))
        assert restored.ases == graph.ases
        assert list(restored.links()) == list(graph.links())
