"""Unit tests for the fault-injection layer (repro.faults)."""

from __future__ import annotations

import json

import pytest

from repro.errors import FaultInjectionError, InjectedFault, ReproError
from repro.faults import (
    BUNDLED_PLANS,
    CHECKPOINT_CORRUPTION,
    MEASUREMENT_LOSS,
    ROUTE_CHURN,
    VOLUME_NOISE,
    WORKER_CRASH,
    WORKER_HANG,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InvariantMonitor,
    ResilienceReport,
    RetryPolicy,
    atomic_write_text,
    build_resilience_report,
    content_checksum,
    load_fault_plan,
    stable_unit,
)
from repro.faults.injection import ACTION_CRASH, ACTION_HANG


# ----------------------------------------------------------------------
# stable_unit / FaultSpec / FaultPlan
# ----------------------------------------------------------------------


class TestStableUnit:
    def test_in_unit_interval(self):
        for token in range(200):
            value = stable_unit(7, "site", token)
            assert 0.0 <= value < 1.0

    def test_deterministic_across_calls(self):
        assert stable_unit(3, "a", 1) == stable_unit(3, "a", 1)

    def test_sensitive_to_every_token(self):
        base = stable_unit(3, "a", 1)
        assert stable_unit(4, "a", 1) != base
        assert stable_unit(3, "b", 1) != base
        assert stable_unit(3, "a", 2) != base

    def test_roughly_uniform(self):
        draws = [stable_unit(0, i) for i in range(2000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 0.5) < 0.03


class TestFaultSpec:
    def test_validates_kind(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec(kind="segfault")

    def test_validates_rate(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec(kind=WORKER_CRASH, rate=1.5)

    def test_validates_window(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec(kind=WORKER_CRASH, start=5, stop=5)

    def test_active_window(self):
        spec = FaultSpec(kind=WORKER_CRASH, rate=1.0, start=2, stop=4)
        assert [spec.active_at(i) for i in range(6)] == [
            False, False, True, True, False, False,
        ]

    def test_open_ended_window(self):
        spec = FaultSpec(kind=WORKER_CRASH, rate=1.0, start=1)
        assert not spec.active_at(0)
        assert spec.active_at(10_000)

    def test_is_an_repro_error(self):
        with pytest.raises(ReproError):
            FaultSpec(kind=WORKER_CRASH, rate=-0.1)


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty

    def test_zero_rate_plan_is_empty(self):
        plan = FaultPlan(specs=(FaultSpec(kind=WORKER_CRASH, rate=0.0),))
        assert plan.is_empty

    def test_specs_for_preserves_positions(self):
        plan = BUNDLED_PLANS["mixed"]
        for position, spec in plan.specs_for(VOLUME_NOISE):
            assert plan.specs[position] is spec
            assert spec.kind == VOLUME_NOISE

    def test_json_round_trip(self):
        plan = BUNDLED_PLANS["mixed"]
        clone = FaultPlan.from_serializable(
            json.loads(json.dumps(plan.as_serializable()))
        )
        assert clone == plan

    def test_round_trip_preserves_decisions(self):
        plan = BUNDLED_PLANS["mixed"]
        clone = FaultPlan.from_serializable(plan.as_serializable())
        for token in range(50):
            assert clone.decision("site", token) == plan.decision("site", token)

    def test_scaled_multiplies_rates(self):
        plan = BUNDLED_PLANS["worker-crash"].scaled(0.5)
        assert plan.specs[0].rate == pytest.approx(0.15)

    def test_scaled_clamps_to_one(self):
        plan = BUNDLED_PLANS["worker-crash"].scaled(100.0)
        assert all(spec.rate <= 1.0 for spec in plan.specs)

    def test_scaled_zero_is_empty(self):
        assert BUNDLED_PLANS["mixed"].scaled(0.0).is_empty

    def test_scaled_rejects_negative(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan().scaled(-1.0)

    def test_malformed_payload_raises(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_serializable({"specs": [{"rate": 0.5}]})

    def test_load_bundled_name(self):
        assert load_fault_plan("mixed") is BUNDLED_PLANS["mixed"]

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(BUNDLED_PLANS["volume-noise"].as_serializable())
        )
        assert load_fault_plan(str(path)) == BUNDLED_PLANS["volume-noise"]

    def test_load_unknown_raises(self):
        with pytest.raises(FaultInjectionError):
            load_fault_plan("no-such-plan")

    def test_bundled_plans_carry_their_names(self):
        for name, plan in BUNDLED_PLANS.items():
            assert plan.name == name
            assert not plan.is_empty


# ----------------------------------------------------------------------
# FaultInjector hooks
# ----------------------------------------------------------------------


def _certain(kind, **kwargs):
    return FaultInjector(
        FaultPlan(specs=(FaultSpec(kind=kind, rate=1.0, **kwargs),))
    )


class TestInjectorSimulation:
    def test_empty_plan_is_inert(self):
        injector = FaultInjector()
        assert not injector.active
        assert injector.simulation_action(0, "cfg") is None

    def test_certain_crash_fires(self):
        injector = _certain(WORKER_CRASH)
        action = injector.simulation_action(0, "cfg")
        assert action is not None and action.kind == ACTION_CRASH
        with pytest.raises(InjectedFault):
            action.execute()
        assert injector.log.by_kind[WORKER_CRASH] == 1

    def test_hang_carries_delay(self):
        injector = _certain(WORKER_HANG, delay_seconds=0.0)
        action = injector.simulation_action(0, "cfg")
        assert action is not None and action.kind == ACTION_HANG
        action.execute()  # zero delay: returns immediately

    def test_crash_takes_precedence_over_hang(self):
        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(kind=WORKER_HANG, rate=1.0),
                    FaultSpec(kind=WORKER_CRASH, rate=1.0),
                )
            )
        )
        action = injector.simulation_action(0, "cfg")
        assert action.kind == ACTION_CRASH

    def test_decisions_redrawn_per_attempt(self):
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind=WORKER_CRASH, rate=0.5),))
        )
        fired = [
            injector.simulation_action(0, "cfg", attempt) is not None
            for attempt in range(64)
        ]
        assert any(fired) and not all(fired)

    def test_window_gates_by_ordinal(self):
        injector = FaultInjector(
            FaultPlan(
                specs=(FaultSpec(kind=WORKER_CRASH, rate=1.0, start=3, stop=5),)
            )
        )
        fired = [
            injector.simulation_action(ordinal, "cfg") is not None
            for ordinal in range(7)
        ]
        assert fired == [False, False, False, True, True, False, False]

    def test_suppression_disables_firing(self):
        injector = _certain(WORKER_CRASH)
        with injector.suppressed():
            assert not injector.active
            assert injector.simulation_action(0, "cfg") is None
        assert injector.active

    def test_identical_plans_make_identical_decisions(self):
        first = FaultInjector(BUNDLED_PLANS["mixed"])
        second = FaultInjector(BUNDLED_PLANS["mixed"])
        for ordinal in range(40):
            assert first.simulation_action(
                ordinal, f"cfg{ordinal}"
            ) == second.simulation_action(ordinal, f"cfg{ordinal}")


class TestInjectorMeasurement:
    CATCHMENTS = {
        "l1": frozenset(range(100, 140)),
        "l2": frozenset(range(140, 180)),
    }

    def test_empty_plan_returns_input_unchanged(self):
        injector = FaultInjector()
        maps, degraded = injector.degrade_catchments(0, self.CATCHMENTS)
        assert maps == self.CATCHMENTS
        assert degraded == frozenset()

    def test_certain_loss_thins_and_flags(self):
        injector = _certain(MEASUREMENT_LOSS, intensity=0.5)
        maps, degraded = injector.degrade_catchments(0, self.CATCHMENTS)
        assert degraded  # some link lost members
        for link in degraded:
            assert maps[link] < self.CATCHMENTS[link]

    def test_loss_is_deterministic(self):
        first = _certain(MEASUREMENT_LOSS, intensity=0.5)
        second = _certain(MEASUREMENT_LOSS, intensity=0.5)
        assert first.degrade_catchments(
            3, self.CATCHMENTS
        ) == second.degrade_catchments(3, self.CATCHMENTS)

    def test_flap_collectors(self):
        from repro.faults.plan import COLLECTOR_FLAP

        injector = _certain(COLLECTOR_FLAP, intensity=1.0)
        observations = {100: (1, 2), 200: (3, 4)}
        surviving, dropped = injector.flap_collectors(0, observations)
        assert surviving == {}
        assert dropped == 2

    def test_drop_traceroutes(self):
        injector = _certain(MEASUREMENT_LOSS, intensity=1.0)
        surviving, lost = injector.drop_traceroutes(0, ["t1", "t2", "t3"])
        assert surviving == []
        assert lost == 3


class TestInjectorLive:
    def test_volume_noise_identity_without_plan(self):
        assert FaultInjector().volume_noise_factor(0, 0) == 1.0

    def test_volume_noise_nonnegative_and_bounded(self):
        injector = _certain(VOLUME_NOISE, intensity=0.4)
        for window in range(30):
            factor = injector.volume_noise_factor(window, 0)
            assert 0.6 - 1e-9 <= factor <= 1.4 + 1e-9

    def test_extra_churn_respects_window(self):
        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(kind=ROUTE_CHURN, rate=1.0, intensity=0.2, start=5),
                )
            )
        )
        assert injector.extra_churn(0) is None
        assert injector.extra_churn(5) == pytest.approx(0.2)

    def test_corrupt_file_mangles_content(self, tmp_path):
        injector = _certain(CHECKPOINT_CORRUPTION)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"payload": list(range(100))}))
        original = path.read_bytes()
        assert injector.should_corrupt_checkpoint(0)
        injector.corrupt_file(str(path), 0)
        assert path.read_bytes() != original
        assert path.read_bytes().endswith(b"\x00CORRUPT\x00")


# ----------------------------------------------------------------------
# Resilience primitives
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_factor=2.0)
        assert policy.delay_for(0) == pytest.approx(0.01)
        assert policy.delay_for(1) == pytest.approx(0.02)
        assert policy.delay_for(2) == pytest.approx(0.04)

    def test_sleep_before_uses_sleeper(self):
        slept = []
        policy = RetryPolicy(backoff_base=0.5)
        policy.sleep_before(1, sleeper=slept.append)
        assert slept == [pytest.approx(1.0)]

    def test_zero_base_skips_sleep(self):
        slept = []
        RetryPolicy(backoff_base=0.0).sleep_before(3, sleeper=slept.append)
        assert slept == []

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ReproError):
            RetryPolicy(backoff_base=-1.0)


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(threshold=2)
        assert not breaker.open
        breaker.record_failure()
        assert not breaker.open
        breaker.record_failure()
        assert breaker.open
        assert breaker.trips == 1

    def test_success_resets_below_threshold(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.open

    def test_stays_open_after_success(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.open

    def test_validates_threshold(self):
        with pytest.raises(ReproError):
            CircuitBreaker(threshold=0)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "hello")
        assert path.read_text() == "hello"
        assert not (tmp_path / "out.json.tmp").exists()

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"

    def test_checksum_is_stable(self):
        assert content_checksum("abc") == content_checksum("abc")
        assert content_checksum("abc") != content_checksum("abd")


# ----------------------------------------------------------------------
# Health: invariants and the resilience report
# ----------------------------------------------------------------------


class TestInvariantMonitor:
    def test_volume_conservation_holds(self):
        monitor = InvariantMonitor()
        assert monitor.check_volume_conservation(10.0, 7.0, 3.0)
        assert monitor.checks == 1 and not monitor.violations

    def test_volume_conservation_violated(self):
        monitor = InvariantMonitor()
        assert not monitor.check_volume_conservation(10.0, 7.0, 1.0)
        assert monitor.violations[0].name == "volume-conservation"

    def test_partition_coverage_holds(self):
        monitor = InvariantMonitor()
        universe = frozenset({1, 2, 3, 4})
        assert monitor.check_partition_coverage(
            universe, [frozenset({1, 2}), frozenset({3, 4})]
        )

    def test_partition_coverage_missing_member(self):
        monitor = InvariantMonitor()
        assert not monitor.check_partition_coverage(
            frozenset({1, 2, 3}), [frozenset({1, 2})]
        )

    def test_partition_coverage_overlap(self):
        monitor = InvariantMonitor()
        assert not monitor.check_partition_coverage(
            frozenset({1, 2}), [frozenset({1, 2}), frozenset({2})]
        )

    def test_monotone_refinement(self):
        monitor = InvariantMonitor()
        assert monitor.check_monotone_refinement([1, 3, 3, 7])
        assert not monitor.check_monotone_refinement([1, 5, 4])


class TestResilienceReport:
    def test_healthy_without_violations(self):
        assert ResilienceReport().healthy
        assert not ResilienceReport(violations=["x"]).healthy

    def test_total_faults(self):
        report = ResilienceReport(faults_injected={"a": 2, "b": 3})
        assert report.total_faults == 5

    def test_summary_mentions_violations(self):
        report = ResilienceReport(violations=["volume-conservation: off"])
        assert "VIOLATION" in report.summary()

    def test_build_from_injector(self):
        injector = _certain(WORKER_CRASH)
        injector.simulation_action(0, "cfg")
        monitor = InvariantMonitor()
        monitor.check_volume_conservation(1.0, 1.0, 0.0)
        report = build_resilience_report(
            injector, monitor=monitor, degraded_configs=2
        )
        assert report.faults_injected == {WORKER_CRASH: 1}
        assert report.invariant_checks == 1
        assert report.degraded_configs == 2
        assert report.healthy
