"""Edge-case tests for the benchmark gate's slack floor.

The relative-tolerance gate alone flaps on real timers: sub-millisecond
baselines regress on scheduler noise, and zero baselines turn any
positive reading into an infinite-ratio failure.  These tests pin the
absolute-slack floor and the zero-baseline path, and check that the
committed artifacts pass whatever core count they claim.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.obs.benchgate import (
    DEFAULT_ABSOLUTE_SLACK,
    Regression,
    check_benchmarks,
    write_history,
)


def _write_bench(tmp_path, name, metrics):
    (tmp_path / name).write_text(json.dumps(metrics, indent=2))


def _baseline_then_fresh(tmp_path, baseline, fresh):
    _write_bench(tmp_path, "BENCH_a.json", baseline)
    write_history(str(tmp_path))
    _write_bench(tmp_path, "BENCH_a.json", fresh)


class TestAbsoluteSlack:
    def test_sub_slack_delta_passes_at_any_ratio(self, tmp_path):
        # 13x slower, but the delta is ~3.6ms — timer noise, not a regression.
        _baseline_then_fresh(
            tmp_path, {"replay_seconds": 0.0003}, {"replay_seconds": 0.004}
        )
        assert check_benchmarks(str(tmp_path)).passed

    def test_above_slack_and_tolerance_fails(self, tmp_path):
        _baseline_then_fresh(
            tmp_path, {"sim_seconds": 0.5}, {"sim_seconds": 0.7}
        )
        result = check_benchmarks(str(tmp_path))
        assert not result.passed
        assert result.regressions[0].metric == "sim_seconds"

    def test_above_slack_within_tolerance_passes(self, tmp_path):
        # 10% slower with a 100ms delta: past the slack floor but inside
        # the 15% relative tolerance.
        _baseline_then_fresh(
            tmp_path, {"sim_seconds": 1.0}, {"sim_seconds": 1.1}
        )
        assert check_benchmarks(str(tmp_path)).passed

    def test_slack_is_configurable(self, tmp_path):
        _baseline_then_fresh(
            tmp_path, {"replay_seconds": 0.0003}, {"replay_seconds": 0.004}
        )
        strict = check_benchmarks(str(tmp_path), absolute_slack=0.0)
        assert not strict.passed
        assert "slack 0ms" in strict.summary_lines()[0]

    def test_negative_slack_rejected(self, tmp_path):
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 1.0})
        write_history(str(tmp_path))
        with pytest.raises(ValueError):
            check_benchmarks(str(tmp_path), absolute_slack=-0.001)

    def test_zero_baseline_tiny_reading_passes(self, tmp_path):
        # A metric that used to round to 0.0 and now measures 2ms is fine.
        _baseline_then_fresh(
            tmp_path, {"replay_seconds": 0.0}, {"replay_seconds": 0.002}
        )
        assert check_benchmarks(str(tmp_path)).passed

    def test_zero_baseline_large_reading_fails_readably(self, tmp_path):
        _baseline_then_fresh(
            tmp_path, {"replay_seconds": 0.0}, {"replay_seconds": 0.25}
        )
        result = check_benchmarks(str(tmp_path))
        assert not result.passed
        described = result.regressions[0].describe()
        assert "inf" not in described
        assert "+250.00ms" in described

    def test_describe_relative_for_positive_baseline(self):
        reg = Regression("BENCH_a.json", "x_seconds", 1.0, 1.5)
        assert "(+50.0%)" in reg.describe()


class TestCliAbsoluteSlack:
    def test_cli_slack_flag(self, tmp_path, capsys):
        _write_bench(tmp_path, "BENCH_a.json", {"replay_seconds": 0.0003})
        assert (
            main(["bench-check", "--bench-dir", str(tmp_path), "--update"])
            == 0
        )
        capsys.readouterr()
        _write_bench(tmp_path, "BENCH_a.json", {"replay_seconds": 0.004})
        # Default slack absorbs the sub-5ms delta...
        assert main(["bench-check", "--bench-dir", str(tmp_path)]) == 0
        assert "bench-check: OK" in capsys.readouterr().out
        # ...an explicit zero slack restores the strict relative gate.
        assert (
            main(
                [
                    "bench-check",
                    "--bench-dir",
                    str(tmp_path),
                    "--absolute-slack",
                    "0",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "bench-check: FAIL" in out

    def test_committed_artifacts_report_single_core_skip_or_pass(self, capsys):
        # Whatever core count the committed artifacts were recorded
        # with, bench-check passes; no gate compares metrics across
        # core counts any more.
        assert main(["bench-check"]) == 0
        out = capsys.readouterr().out
        assert "bench-check: OK" in out
        assert "vs serial" not in out

    def test_committed_artifacts_pass_with_four_cores(self, tmp_path):
        """Stamping ``cpu_count=4`` on every committed artifact (what a
        multi-core runner's merge does) must not fail the gate."""
        bench_dir = os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks"
        )
        for name in os.listdir(bench_dir):
            if not (name.startswith("BENCH_") and name.endswith(".json")):
                continue
            with open(os.path.join(bench_dir, name)) as handle:
                record = json.load(handle)
            if name != "BENCH_history.json" and isinstance(record, dict):
                record["cpu_count"] = 4
            (tmp_path / name).write_text(json.dumps(record))
        result = check_benchmarks(str(tmp_path))
        assert result.passed, result.summary_lines()
        assert result.checked > 0

    def test_default_slack_constant(self):
        assert DEFAULT_ABSOLUTE_SLACK == pytest.approx(0.005)
