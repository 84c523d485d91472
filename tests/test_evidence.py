"""Tests for the one evidence model (universe + per-config catchment maps)."""

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.bgp.simulator import RoutingSimulator
from repro.cli import SCALES
from repro.core.clustering import ClusterState
from repro.core.configgen import ScheduleParams, generate_schedule
from repro.core.engine import SimulationEngine
from repro.core.evidence import Evidence
from repro.core.localization import estimate_cluster_volumes
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.core.scheduler import mean_cluster_size_curve
from repro.core.staleness import StalenessExperiment, churned_policy
from repro.analysis.figures import EvaluationRun
from repro.faults.injection import FaultInjector
from repro.faults.plan import MEASUREMENT_LOSS, FaultPlan, FaultSpec
from repro.live import LiveTracebackService, ReplayScenario, load_checkpoint
from repro.obs import EventBus, MetricsRegistry, Observability
from repro.strategy import compare_strategies

CONFIGS = 40


@pytest.fixture(scope="module")
def small_seed0():
    """The ``small`` CLI scale at seed 0, and one engine shared by every
    builder so the 40 configurations are simulated once."""
    testbed = build_testbed(
        seed=0, topology_params=replace(SCALES["small"], seed=0)
    )
    engine = SimulationEngine(testbed.simulator)
    yield testbed, engine
    engine.close()


class TestEveryBuilderAgrees:
    def test_measured_tracker_and_evaluation_run(self, small_seed0):
        """Both measured builders pad withdrawn links with empty
        catchments; ``EvaluationRun`` used to key on announced links only."""
        testbed, engine = small_seed0
        tracker = SpoofTracker(testbed, engine=engine)
        report = tracker.run(max_configs=CONFIGS, measured=True)
        run = EvaluationRun(
            testbed=testbed, max_configs=CONFIGS, measured=True,
            compute_compliance=False, engine=engine,
        )
        assert len(report.universe) == 161
        assert run.universe == report.universe
        assert run.catchment_history == report.catchment_history
        links = set(testbed.origin.link_ids)
        assert all(set(maps) == links for maps in report.catchment_history)

    def test_ground_truth_builders(self, small_seed0):
        testbed, engine = small_seed0
        tracker = SpoofTracker(testbed, engine=engine)
        report = tracker.run(max_configs=CONFIGS)
        universe, maps = report.universe, report.catchment_history
        schedule = tracker.schedule[:CONFIGS]

        run = EvaluationRun(
            testbed=testbed, max_configs=CONFIGS, compute_compliance=False,
            engine=engine,
        )
        assert (run.universe, run.catchment_history) == (universe, maps)

        service = LiveTracebackService(
            ReplayScenario(seed=0, max_configs=CONFIGS), testbed=testbed
        )
        service.close()
        assert service.universe == universe
        assert service.controller.catchment_maps == maps

        staleness = StalenessExperiment(
            testbed.graph, testbed.origin, testbed.policy, schedule
        )
        assert staleness.universe == universe
        assert staleness.evidence.maps == maps

        compared = compare_strategies(
            testbed, strategies=["schedule"], max_configs=CONFIGS,
            engine=engine,
        )
        assert compared.universe_size == len(universe)
        (outcome,) = compared.outcomes
        assert outcome.curve == mean_cluster_size_curve(
            sorted(universe), maps, outcome.order
        )


def _loss_injector():
    """Certain measurement loss at steps 1 and 2 only."""
    return FaultInjector(
        FaultPlan(
            specs=(
                FaultSpec(
                    kind=MEASUREMENT_LOSS, rate=1.0, intensity=0.5,
                    start=1, stop=3,
                ),
            )
        )
    )


@pytest.fixture(scope="module")
def schedule_outcomes(small_testbed):
    configs = generate_schedule(
        small_testbed.origin, small_testbed.graph, ScheduleParams()
    )[:6]
    engine = SimulationEngine(small_testbed.simulator)
    outcomes = engine.simulate_many(configs)
    engine.close()
    return configs, outcomes


class TestEvidenceOperations:
    def test_reorder_keeps_steps_aligned(self, schedule_outcomes):
        configs, outcomes = schedule_outcomes
        evidence = Evidence.build(configs, outcomes, injector=_loss_injector())
        order = [4, 1, 0, 2]
        planned = evidence.reordered(order)
        assert planned.universe == evidence.universe
        assert [step.config for step in planned.steps] == [
            configs[i] for i in order
        ]
        assert [step.outcome for step in planned.steps] == [
            outcomes[i] for i in order
        ]
        assert planned.maps == [evidence.maps[i] for i in order]
        assert [step.degraded for step in planned.steps] == [
            evidence.steps[i].degraded for i in order
        ]

    def test_degraded_links_leave_planning_and_nnls(self, schedule_outcomes):
        configs, outcomes = schedule_outcomes
        clean = Evidence.build(configs, outcomes)
        evidence = Evidence.build(configs, outcomes, injector=_loss_injector())
        degraded = [step.degraded for step in evidence.steps]
        assert not degraded[0] and degraded[1] and degraded[2]
        assert not any(degraded[3:])
        assert evidence.degraded_steps == 2
        for maps, lost, truth in zip(
            evidence.planning_maps(), degraded, clean.maps
        ):
            assert set(maps) == set(truth) - lost
            assert all(maps[link] == truth[link] for link in maps)
        rows = [f"volumes-{index}" for index in range(len(configs))]
        nnls_maps, nnls_rows = evidence.nnls_inputs(rows)
        assert nnls_rows == [rows[0], rows[3], rows[4], rows[5]]
        assert nnls_maps == [evidence.maps[i] for i in (0, 3, 4, 5)]

    def test_unconverged_step_is_excluded_announced_and_counted(
        self, schedule_outcomes
    ):
        configs, outcomes = schedule_outcomes
        assert all(outcome.converged for outcome in outcomes)
        outcomes = list(outcomes)
        outcomes[2] = replace(outcomes[2], converged=False)
        bus, registry = EventBus(), MetricsRegistry()
        evidence = Evidence.build(configs, outcomes, bus=bus, registry=registry)
        step = evidence.steps[2]
        assert step.catchments and step.degraded == frozenset(step.catchments)
        assert evidence.degraded_steps == 1
        assert evidence.planning_maps()[2] == {}
        rows = list(range(len(configs)))
        assert evidence.nnls_inputs(rows)[1] == [0, 1, 3, 4, 5]
        (event,) = bus.history()
        assert (event["kind"], event["step"]) == ("unconverged", 2)
        assert event["config"] == (configs[2].label or configs[2].describe())
        assert registry.counter_totals() == {
            "repro_evidence_unconverged_steps_total": 1.0
        }
        # Settled evidence publishes and registers nothing.
        quiet_bus, quiet_registry = EventBus(), MetricsRegistry()
        Evidence.build(
            configs, schedule_outcomes[1], bus=quiet_bus, registry=quiet_registry
        )
        assert quiet_bus.history() == []
        assert quiet_registry.counter_totals() == {}

    def test_splitter_extension_keeps_universe(self, schedule_outcomes):
        configs, outcomes = schedule_outcomes
        universe = frozenset(sorted(outcomes[0].covered_ases)[:30])
        evidence = Evidence.build(configs[:2], outcomes[:2], universe=universe)
        extended = evidence.extended(configs[2:], outcomes[2:])
        assert extended.universe == universe
        assert [step.config for step in extended.steps] == configs
        assert extended.maps[:2] == evidence.maps
        for step, outcome in zip(extended.steps[2:], outcomes[2:]):
            assert not step.degraded
            assert step.catchments == {
                link: members & universe
                for link, members in outcome.catchments.items()
            }

    def test_live_remeasure_keeps_universe(self, small_testbed):
        service = LiveTracebackService(
            ReplayScenario(
                seed=5, max_configs=4, min_configs=1, strategy="schedule",
                churn_events=((6, 0.5),),
            ),
            testbed=small_testbed,
        )
        universe, stale = service.universe, service.evidence.maps
        service.run()
        service.close()
        assert service.churn_log[0]["remeasured"]
        (churn,) = service.churn_log
        live_sim = RoutingSimulator(
            small_testbed.graph,
            small_testbed.origin,
            churned_policy(
                small_testbed.policy, churn["drift"], churn["churn_seed"]
            ),
        )
        churned = [
            {
                link: members & universe
                for link, members in live_sim.simulate(config).catchments.items()
            }
            for config in service.schedule
        ]
        assert churned != stale
        assert service.evidence.universe == universe
        assert service.controller.catchment_maps == churned
        assert [obs.catchments for obs in service.attributor.observations] == [
            churned[index] for index in service.deployed
        ]

    def test_checkpoint_resume_keeps_universe(self, small_testbed, tmp_path):
        path = str(tmp_path / "churn.json")
        scenario = ReplayScenario(
            seed=5, max_configs=3, min_configs=1, strategy="schedule",
            churn_events=((2, 0.5),), checkpoint_every=5,
            checkpoint_path=path,
        )
        service = LiveTracebackService(scenario=scenario, testbed=small_testbed)
        service.run()
        service.close()
        assert service.churn_log[0]["remeasured"]
        restored = load_checkpoint(path)
        restored.close()
        assert restored.evidence.universe == service.universe
        assert restored.evidence == service.evidence
        assert restored.controller.catchment_maps == service.evidence.maps


class TestLabels:
    def test_rows_decode_to_the_restricted_catchments(self, schedule_outcomes):
        configs, outcomes = schedule_outcomes
        universe = frozenset(sorted(outcomes[0].covered_ases)[::3])
        evidence = Evidence.build(configs, outcomes, universe=universe)
        labels = evidence.labels
        assert labels.dtype == np.int32
        assert labels.shape == (len(configs), len(universe))
        asns = np.array(sorted(universe))
        for row, step, outcome in zip(labels, evidence.steps, outcomes):
            links = sorted(outcome.catchments)
            assert list(step.catchments) == list(outcome.catchments)
            assert set(row.tolist()) <= set(range(len(links) + 1))
            for label, link in enumerate(links, start=1):
                restricted = outcome.catchments[link] & universe
                assert set(asns[row == label].tolist()) == restricted
                assert step.catchments[link] == restricted

    def test_route_table_rows_match_the_set_path(self, schedule_outcomes):
        """Rows sliced from ``r_link`` equal rows labelled from the
        catchment sets of the same outcomes."""
        configs, outcomes = schedule_outcomes
        by_sets = [
            replace(outcome, routes=dict(outcome.routes)) for outcome in outcomes
        ]
        sliced = Evidence.build(configs, outcomes)
        labelled = Evidence.build(configs, by_sets)
        assert np.array_equal(sliced.labels, labelled.labels)
        assert sliced.maps == labelled.maps

    def test_thinned_cells_are_zero_and_rows_travel(self, schedule_outcomes):
        configs, outcomes = schedule_outcomes
        clean = Evidence.build(configs, outcomes)
        evidence = Evidence.build(configs, outcomes, injector=_loss_injector())
        lost = (clean.labels != 0) & (evidence.labels == 0)
        assert lost[1:3].any() and not lost[[0, 3, 4, 5]].any()
        assert ((evidence.labels == clean.labels) | lost).all()
        order = [4, 1, 0, 2]
        assert np.array_equal(
            evidence.reordered(order).labels, evidence.labels[order]
        )
        head = Evidence.build(configs[:2], outcomes[:2])
        assert np.array_equal(
            head.extended(configs[2:], outcomes[2:]).labels, clean.labels
        )
        assert np.array_equal(clean.rebuilt(outcomes).labels, clean.labels)
        maps, _ = evidence.nnls_inputs(list(range(len(configs))))
        assert [m.row.labels.tolist() for m in maps] == [
            evidence.labels[i].tolist() for i in (0, 3, 4, 5)
        ]

    def test_maps_are_dicts_that_build_sets_on_read(self, schedule_outcomes):
        configs, outcomes = schedule_outcomes
        maps = Evidence.build(configs[:1], outcomes[:1]).maps[0]
        assert isinstance(maps, dict)
        # Nothing restricted yet: the links are stored, no set is.
        assert not maps.built
        assert all(members is None for members in dict.values(maps))
        assert len(maps) == len(outcomes[0].catchments)
        assert list(maps) == list(outcomes[0].catchments)
        plain = dict(maps)
        assert dict.__len__(maps) == len(plain)
        assert maps == plain and plain == maps
        assert json.loads(json.dumps({k: sorted(v) for k, v in maps.items()}))
        assert pickle.loads(pickle.dumps(maps)) == plain


class TestLiveHonoursDegradedEvidence:
    UNSETTLED = 1

    def test_unconverged_step_is_skipped_by_live_clusters_and_nnls(
        self, small_testbed, monkeypatch
    ):
        real = SimulationEngine.iter_simulate

        def unsettled(engine, configs):
            for index, outcome in enumerate(real(engine, configs)):
                if index == self.UNSETTLED:
                    outcome = replace(outcome, converged=False)
                yield outcome

        monkeypatch.setattr(SimulationEngine, "iter_simulate", unsettled)
        obs = Observability(registry=MetricsRegistry(), bus=EventBus())
        service = LiveTracebackService(
            ReplayScenario(
                seed=5, max_configs=6, min_configs=6, strategy="schedule"
            ),
            testbed=small_testbed,
            obs=obs,
        )
        report = service.run()
        service.close()
        evidence = service.evidence
        assert self.UNSETTLED in service.deployed
        step = evidence.steps[self.UNSETTLED]
        assert step.degraded == frozenset(step.catchments)
        kinds = [event["kind"] for event in obs.bus.history()]
        assert kinds.count("unconverged") == 1
        assert obs.registry.counter_totals()[
            "repro_evidence_unconverged_steps_total"
        ] == 1.0

        batch = ClusterState(evidence.universe)
        trusting = ClusterState(evidence.universe)
        for index in service.deployed:
            deployed = evidence.steps[index]
            batch.refine_with_catchments(deployed.catchments, deployed.degraded)
            trusting.refine_with_catchments(deployed.catchments)
        assert report.clusters == batch.clusters()
        assert trusting.clusters() != batch.clusters()

        observed = [
            obs for obs in service.attributor.observations
            if obs.offered_volume > 0
        ]
        assert any(obs.degraded for obs in observed)
        kept = [obs for obs in observed if not obs.degraded]
        volumes, residual = estimate_cluster_volumes(
            batch.clusters(),
            [obs.catchments for obs in kept],
            [obs.normalized_volumes() for obs in kept],
        )
        ranked = {
            cluster.members: cluster.estimated_volume
            for cluster in report.localization.ranked
        }
        assert ranked == dict(zip(batch.clusters(), volumes))
        assert report.localization.residual == residual
