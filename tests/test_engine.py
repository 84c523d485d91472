"""Tests for the caching, warm-starting simulation engine."""

import dataclasses
import hashlib
import json

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.core.engine import EngineStats, SimulationEngine, warm_start_parent
from repro.core.pipeline import SpoofTracker
from repro.errors import ReproError, SimulationError
from repro.live import LiveTracebackService, ReplayScenario
from tests.conftest import T1
from tests.test_obs import stream_configs


LINKS = ["l1", "l2"]


class TestWarmStartParent:
    def test_anycast_all_has_no_parent(self):
        assert warm_start_parent(anycast_all(LINKS), LINKS) is None

    def test_subset_locations_seeds_from_anycast_all(self):
        config = AnnouncementConfig(announced=frozenset(["l1"]))
        parent = warm_start_parent(config, LINKS)
        assert parent is not None
        assert parent.announced == frozenset(LINKS)
        assert not parent.prepended and not parent.poisoned

    def test_manipulations_seed_from_same_locations(self):
        for config in (
            AnnouncementConfig(
                announced=frozenset(["l1"]), prepended=frozenset(["l1"])
            ),
            AnnouncementConfig(
                announced=frozenset(["l1"]), poisoned={"l1": frozenset([T1])}
            ),
            AnnouncementConfig(
                announced=frozenset(["l1"]), no_export={"l1": frozenset([T1])}
            ),
        ):
            parent = warm_start_parent(config, LINKS)
            assert parent.announced == config.announced
            assert not parent.prepended
            assert not parent.poisoned and not parent.no_export

    def test_parent_ignores_label_metadata(self):
        a = AnnouncementConfig(announced=frozenset(["l1"]), label="x")
        b = AnnouncementConfig(announced=frozenset(["l1"]), label="y")
        assert warm_start_parent(a, LINKS).key() == warm_start_parent(b, LINKS).key()


class TestCaching:
    def test_repeat_runs_zero_new_fixpoints(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        configs = [
            anycast_all(LINKS),
            AnnouncementConfig(announced=frozenset(["l1"])),
            AnnouncementConfig(
                announced=frozenset(["l1", "l2"]), prepended=frozenset(["l1"])
            ),
        ]
        first = engine.simulate_many(configs)
        simulated = engine.stats.configs_simulated
        assert simulated >= len(configs)
        second = engine.simulate_many(configs)
        assert engine.stats.configs_simulated == simulated  # all cache hits
        assert engine.stats.cache_hits >= len(configs)
        for a, b in zip(first, second):
            assert a is b

    def test_cache_key_ignores_label_and_phase(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        a = engine.simulate(anycast_all(LINKS, label="first"))
        before = engine.stats.configs_simulated
        b = engine.simulate(
            AnnouncementConfig(
                announced=frozenset(LINKS), label="second", phase="locations"
            )
        )
        assert engine.stats.configs_simulated == before
        assert a is b

    def test_duplicates_within_batch_counted_as_hits(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        config = anycast_all(LINKS)
        outcomes = engine.simulate_many([config, config, config])
        assert outcomes[0] is outcomes[1] is outcomes[2]
        assert engine.stats.cache_hits == 2
        assert engine.stats.configs_requested == 3

    def test_cached_outcome_never_simulates(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        config = anycast_all(LINKS)
        assert engine.cached_outcome(config) is None
        outcome = engine.simulate(config)
        assert engine.cached_outcome(config) is outcome
        engine.clear_cache()
        assert engine.cached_outcome(config) is None

    def test_lru_eviction_bounds_cache(self, mini_simulator):
        engine = SimulationEngine(mini_simulator, warm_start=False, cache_size=1)
        first = anycast_all(LINKS)
        second = AnnouncementConfig(announced=frozenset(["l1"]))
        engine.simulate(first)
        engine.simulate(second)  # evicts first
        assert engine.cached_outcome(first) is None
        assert engine.cached_outcome(second) is not None

    def test_on_demand_parent_is_cached(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        child = AnnouncementConfig(
            announced=frozenset(["l1"]), prepended=frozenset(["l1"])
        )
        engine.simulate(child)
        # Both the locations parent and the anycast-all grandparent were
        # simulated en route and must now be hits.
        before = engine.stats.configs_simulated
        engine.simulate(AnnouncementConfig(announced=frozenset(["l1"])))
        engine.simulate(anycast_all(LINKS))
        assert engine.stats.configs_simulated == before

    def test_validation(self, mini_simulator):
        with pytest.raises(SimulationError):
            SimulationEngine(mini_simulator, cache_size=0)


class TestWarmStartCorrectness:
    def test_warm_equals_cold_on_mini(self, mini_simulator):
        configs = [
            anycast_all(LINKS),
            AnnouncementConfig(announced=frozenset(["l1"])),
            AnnouncementConfig(announced=frozenset(["l2"])),
            AnnouncementConfig(
                announced=frozenset(LINKS), prepended=frozenset(["l1"])
            ),
            AnnouncementConfig(
                announced=frozenset(LINKS), poisoned={"l1": frozenset([T1])}
            ),
        ]
        warm = SimulationEngine(mini_simulator, warm_start=True)
        cold = SimulationEngine(mini_simulator, warm_start=False)
        for a, b in zip(warm.simulate_many(configs), cold.simulate_many(configs)):
            assert a.routes == b.routes
            assert a.catchments == b.catchments
        assert warm.stats.warm_starts > 0
        assert cold.stats.warm_starts == 0

    def test_warm_equals_cold_on_generated_schedule(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        configs = tracker.schedule[:25]
        warm = SimulationEngine(small_testbed.simulator, warm_start=True)
        cold = SimulationEngine(small_testbed.simulator, warm_start=False)
        for a, b in zip(warm.simulate_many(configs), cold.simulate_many(configs)):
            assert a.routes == b.routes

    def test_direct_warm_start_api(self, mini_simulator):
        base = mini_simulator.simulate(anycast_all(LINKS))
        config = AnnouncementConfig(announced=frozenset(["l2"]))
        warm = mini_simulator.simulate(config, warm_start=base.routes)
        cold = mini_simulator.simulate(config)
        assert warm.warm_started and not cold.warm_started
        assert warm.routes == cold.routes
        assert warm.catchments == cold.catchments


class TestStats:
    def test_since_reports_deltas(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        engine.simulate(anycast_all(LINKS))
        snapshot = engine.stats.copy()
        engine.simulate(anycast_all(LINKS))  # hit
        delta = engine.stats.since(snapshot)
        assert delta.configs_requested == 1
        assert delta.configs_simulated == 0
        assert delta.cache_hits == 1

    def test_summary_renders(self):
        text = EngineStats(configs_simulated=3, configs_requested=5).summary()
        assert "3 simulated / 5 requested" in text


def _canonical(value):
    """JSON-ready form of report fields, independent of set order."""
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, dict):
        return sorted([str(key), _canonical(item)] for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if dataclasses.is_dataclass(value):
        return _canonical(dataclasses.asdict(value))
    return value


class TestPinnedSerialOracle:
    """Oracles recorded when one and two workers still agreed; the
    serial engine must reproduce them."""

    #: sha256 of universe, clusters, steps and catchment history of the
    #: split run below.
    SPLIT_RUN_DIGEST = (
        "7b27cf9c35f96eafd00309b9950fa9ea96698665082c3e55cfa3ca429e8b3803"
    )

    def test_split_run_matches_pinned_digest(self, small_testbed):
        report = SpoofTracker(small_testbed).run(
            max_configs=12, split_threshold=5, split_budget=8
        )
        payload = {
            "universe": _canonical(report.universe),
            "clusters": _canonical(report.clusters),
            "steps": _canonical(report.steps),
            "history": _canonical(report.catchment_history),
        }
        text = json.dumps(payload, sort_keys=True, default=str)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SPLIT_RUN_DIGEST
        assert report.engine_stats.configs_simulated == 20

    def test_outcomes_independent_of_request_order(self, small_testbed):
        configs = stream_configs(small_testbed)
        forward = SimulationEngine(small_testbed.simulator)
        backward = SimulationEngine(small_testbed.simulator)
        ahead = forward.simulate_many(configs)
        behind = backward.simulate_many(configs[::-1])[::-1]
        for a, b in zip(ahead, behind):
            assert a.routes == b.routes
            assert a.catchments == b.catchments


class TestSerialOnly:
    """Simulation runs in-process; ``workers`` other than 1 is rejected."""

    def test_tracker_rejects_workers_2(self, small_testbed):
        with pytest.raises(ReproError):
            SpoofTracker(small_testbed, workers=2)

    def test_live_service_rejects_workers_2(self, small_testbed):
        with pytest.raises(ReproError):
            LiveTracebackService(
                scenario=ReplayScenario(seed=5, max_configs=2),
                testbed=small_testbed,
                workers=2,
            )


class TestWallTimeAccounting:
    """``wall_time`` measures engine work, not consumer dawdling.

    ``iter_simulate`` opens a timing window per result; a consumer that
    sleeps between ``next()`` calls must not inflate ``wall_time`` (the
    windows are disjoint and close before each yield).
    """

    SLEEP = 0.05

    def _consume_slowly(self, engine, configs):
        import time as _time

        start = _time.perf_counter()
        outcomes = []
        for outcome in engine.iter_simulate(configs):
            outcomes.append(outcome)
            _time.sleep(self.SLEEP)
        elapsed = _time.perf_counter() - start
        return outcomes, elapsed

    def test_serial_slow_consumer_not_charged(self, small_testbed):
        configs = SpoofTracker(small_testbed).schedule[:8]
        engine = SimulationEngine(small_testbed.simulator)
        outcomes, elapsed = self._consume_slowly(engine, configs)
        assert len(outcomes) == len(configs)
        sleep_total = self.SLEEP * len(configs)
        assert elapsed >= sleep_total
        assert engine.stats.wall_time <= elapsed - 0.5 * sleep_total
