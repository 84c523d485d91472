"""Tests for policy-compliance auditing and catchment prediction."""

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.bgp.policy import PolicyModel
from repro.bgp.simulator import RoutingSimulator
from repro.core.prediction import (
    CatchmentPredictor,
    PredictionAccuracy,
    policy_compliance,
)
from tests.conftest import build_mini_internet


def mini_setup(**policy_kwargs):
    mini = build_mini_internet()
    defaults = dict(policy_noise=0.0, loop_prevention_disabled_fraction=0.0)
    defaults.update(policy_kwargs)
    policy = PolicyModel(mini.graph, seed=0, **defaults)
    simulator = RoutingSimulator(mini.graph, mini.origin, policy)
    return mini, policy, simulator


class TestPolicyCompliance:
    def test_clean_policies_fully_compliant(self):
        mini, policy, simulator = mini_setup()
        outcome = simulator.simulate(anycast_all(["l1", "l2"]))
        stats = policy_compliance(outcome, mini.graph, policy, mini.origin)
        assert stats.ases_checked > 0
        assert stats.best_relationship == 1.0
        assert stats.best_relationship_and_shortest == 1.0

    def test_both_criteria_never_exceeds_relationship(self, small_testbed):
        outcome = small_testbed.simulator.simulate(
            anycast_all(small_testbed.origin.link_ids)
        )
        stats = policy_compliance(
            outcome,
            small_testbed.graph,
            small_testbed.policy,
            small_testbed.origin,
        )
        assert (
            stats.best_relationship_and_shortest <= stats.best_relationship <= 1.0
        )

    def test_deviant_policies_reduce_compliance(self):
        mini, policy, simulator = mini_setup(policy_noise=1.0)
        outcome = simulator.simulate(anycast_all(["l1", "l2"]))
        stats = policy_compliance(outcome, mini.graph, policy, mini.origin)
        clean_mini, clean_policy, clean_simulator = mini_setup()
        clean_outcome = clean_simulator.simulate(anycast_all(["l1", "l2"]))
        clean = policy_compliance(
            clean_outcome, clean_mini.graph, clean_policy, clean_mini.origin
        )
        assert stats.best_relationship <= clean.best_relationship

    def test_checks_only_ases_with_alternatives(self):
        mini, policy, simulator = mini_setup()
        outcome = simulator.simulate(anycast_all(["l1", "l2"]))
        stats = policy_compliance(outcome, mini.graph, policy, mini.origin)
        # Stubs A, B, C have one provider each — no choice, not checked.
        assert stats.ases_checked <= len(outcome.routes) - 3

    def test_no_checkable_ases_degenerate(self):
        mini, policy, simulator = mini_setup()
        outcome = simulator.simulate(
            AnnouncementConfig(announced=frozenset(["l1"]))
        )
        # Works without the origin argument too (fewer candidates audited).
        stats = policy_compliance(outcome, mini.graph, policy)
        assert 0.0 <= stats.best_relationship <= 1.0


class TestCatchmentPredictor:
    def test_perfect_prediction_on_clean_internet(self):
        mini, policy, simulator = mini_setup()
        predictor = CatchmentPredictor(mini.graph, mini.origin)
        config = anycast_all(["l1", "l2"])
        actual = simulator.simulate(config)
        predicted = predictor.predict(config)
        accuracy = CatchmentPredictor.accuracy(predicted, actual)
        assert accuracy.fraction_correct == 1.0
        assert accuracy.ases_compared == len(actual.routes)

    def test_prediction_mostly_right_with_noise(self, small_testbed):
        predictor = CatchmentPredictor(small_testbed.graph, small_testbed.origin)
        config = anycast_all(small_testbed.origin.link_ids)
        actual = small_testbed.simulator.simulate(config)
        predicted = predictor.predict(config)
        accuracy = CatchmentPredictor.accuracy(predicted, actual)
        assert accuracy.fraction_correct > 0.7

    def test_accuracy_degenerate(self):
        mini, policy, simulator = mini_setup()
        outcome = simulator.simulate(anycast_all(["l1", "l2"]))
        empty = simulator.simulate(anycast_all(["l1", "l2"]))
        empty.routes = {}
        accuracy = CatchmentPredictor.accuracy(empty, empty)
        assert accuracy.ases_compared == 0
        assert accuracy.fraction_correct == 1.0
