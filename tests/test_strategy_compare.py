"""Tests for the ``spooftrack compare`` harness (repro.strategy.compare)."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.engine import SimulationEngine
from repro.core.pipeline import build_testbed
from repro.errors import StrategyError
from repro.obs import Observability
from repro.strategy import (
    available_strategies,
    compare_strategies,
    configs_to_convergence,
)

MAX_CONFIGS = 12


class TestConfigsToConvergence:
    def test_empty_curve(self):
        assert configs_to_convergence([]) == 0

    def test_flat_curve_converged_at_first_step(self):
        assert configs_to_convergence([4.0, 4.0, 4.0]) == 1

    def test_strictly_decreasing_converges_last(self):
        assert configs_to_convergence([8.0, 4.0, 2.0]) == 3

    def test_plateau_tail(self):
        assert configs_to_convergence([8.0, 2.0, 2.0, 2.0]) == 2


class TestCompare:
    @pytest.fixture(scope="class")
    def report(self):
        testbed = build_testbed(seed=0)
        return compare_strategies(testbed, max_configs=MAX_CONFIGS)

    def test_races_every_registered_strategy(self, report):
        assert len(report.outcomes) == len(available_strategies())
        assert {o.strategy for o in report.outcomes} == set(
            available_strategies()
        )

    def test_ranked_by_final_mean_then_convergence(self, report):
        keys = [
            (o.final_mean_cluster_size, o.configs_to_convergence,
             o.dwell_minutes, o.strategy)
            for o in report.outcomes
        ]
        assert keys == sorted(keys)

    def test_outcomes_are_internally_consistent(self, report):
        for outcome in report.outcomes:
            assert outcome.configs_deployed == len(outcome.order)
            assert len(outcome.curve) == outcome.configs_deployed
            assert outcome.configs_to_convergence <= outcome.configs_deployed
            assert outcome.dwell_minutes >= 0.0
            assert outcome.final_max_cluster_size >= 1
            assert outcome.stop_reason

    def test_greedy_beats_schedule_order(self, report):
        by_name = {o.strategy: o for o in report.outcomes}
        greedy = by_name["greedy"]
        schedule = by_name["schedule"]
        assert greedy.final_mean_cluster_size <= (
            schedule.final_mean_cluster_size
        )
        assert greedy.configs_deployed <= schedule.configs_deployed

    def test_deterministic_across_runs(self, report):
        again = compare_strategies(build_testbed(seed=0),
                                   max_configs=MAX_CONFIGS)
        first, second = report.as_dict(), again.as_dict()
        first.pop("engine"), second.pop("engine")  # summary has wall time
        assert first == second

    def test_table_lists_all_strategies(self, report):
        table = report.table()
        for name in available_strategies():
            assert name in table
        assert "rank" in table and "dwell(min)" in table

    def test_subset_and_order_dedup(self):
        testbed = build_testbed(seed=0)
        report = compare_strategies(
            testbed,
            strategies=["random", "greedy", "random"],
            max_configs=MAX_CONFIGS,
        )
        assert {o.strategy for o in report.outcomes} == {"random", "greedy"}

    def test_rejects_empty_strategy_list(self):
        with pytest.raises(StrategyError):
            compare_strategies(build_testbed(seed=0), strategies=[])

    @pytest.mark.parametrize("max_configs", [0, -2])
    def test_max_configs_below_one_rejected(self, max_configs):
        with pytest.raises(StrategyError, match="at least 1"):
            compare_strategies(
                build_testbed(seed=0),
                strategies=["greedy"],
                max_configs=max_configs,
            )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(StrategyError):
            compare_strategies(
                build_testbed(seed=0),
                strategies=["nope"],
                max_configs=MAX_CONFIGS,
            )

    def test_json_artifact_roundtrip(self, report, tmp_path):
        path = str(tmp_path / "nested" / "compare.json")
        assert report.write_json(path) == path
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["seed"] == 0
        assert len(payload["strategies"]) == len(report.outcomes)
        assert payload["strategies"][0]["strategy"] == (
            report.outcomes[0].strategy
        )

    def test_shared_engine_is_borrowed_not_closed(self):
        testbed = build_testbed(seed=0)
        engine = SimulationEngine(testbed.simulator)
        try:
            before = engine.stats.configs_simulated
            compare_strategies(
                testbed,
                strategies=["greedy"],
                max_configs=MAX_CONFIGS,
                engine=engine,
            )
            # Engine still usable: the race measured through it and the
            # cache makes a re-run free.
            report = compare_strategies(
                testbed,
                strategies=["greedy"],
                max_configs=MAX_CONFIGS,
                engine=engine,
            )
            assert engine.stats.configs_simulated > before
            assert report.engine_stats.configs_simulated == 0  # all cached
        finally:
            engine.close()

    def test_counters_and_events_emitted(self):
        obs = Observability.for_run("compare-test")
        testbed = build_testbed(seed=0)
        compare_strategies(
            testbed,
            strategies=["greedy", "random"],
            max_configs=MAX_CONFIGS,
            obs=obs,
        )
        totals = obs.registry.counter_totals()
        assert any(
            "repro_compare_configs_total" in key and "greedy" in key
            for key in totals
        )


class TestHashSeedInvariance:
    def test_identical_json_across_hash_seeds(self, tmp_path):
        """The whole race is PYTHONHASHSEED-invariant, subprocess-proven."""
        script = (
            "from repro.core.pipeline import build_testbed\n"
            "from repro.strategy import compare_strategies\n"
            "import json, sys\n"
            "report = compare_strategies(build_testbed(seed=0), "
            f"max_configs={MAX_CONFIGS})\n"
            "payload = report.as_dict()\n"
            "payload.pop('engine')  # summary embeds wall time\n"
            "print(json.dumps(payload, sort_keys=True))\n"
        )
        dumps = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = "src"
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert result.returncode == 0, result.stderr
            dumps.append(result.stdout)
        assert dumps[0] == dumps[1]
