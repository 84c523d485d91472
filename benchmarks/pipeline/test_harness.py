"""Tests of the headline-pipeline benchmark harness.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/pipeline --override-ini testpaths=

Importing this file imports only the stdlib-only harness modules, so
``pytest benchmarks/ --collect-only`` stays cheap.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from layers import (
    HIGHER_IS_BETTER,
    LISTED_LAYER_METRICS,
    PER_LAYER_UNITS,
    SpanIndex,
    SpanRecorder,
    target_bindings,
    traced,
)
from run import END_TO_END, GATED, ROOT, Metric, summarize, verdict
from stats import samples_beyond, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


@pytest.fixture
def program_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, pct",
    [(1145, 99.0), (1000, 99.0), (900, 98.0), (458, 98.0), (229, 95.0),
     (38, 75.0), (21, 50.0), (12, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, pct):
    values = [float(i) for i in range(count)]
    chosen, value = tail_percentile(values)
    assert chosen == pct
    if count >= 21:
        assert samples_beyond(count, chosen) >= 10
    # Nothing higher on the ladder qualifies.
    assert all(
        samples_beyond(count, higher) < 10 for higher in (99.9, 99.5, 99.0, 98.0,
                                                          97.5, 95.0, 90.0, 75.0)
        if higher > chosen
    )
    assert value == pytest.approx((count - 1) * chosen / 100.0)


def test_tail_of_no_samples():
    assert tail_percentile([]) == (None, 0.0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    # [name, start, end, parent, outermost]
    spans = [
        ["a", 0.0, 10.0, -1, True],
        ["b", 1.0, 3.0, 0, True],
        ["a", 1.5, 2.5, 1, False],   # re-entrant: not busy time again
        ["c", 4.0, 8.0, 0, True],
        ["d", 5.0, 6.0, 3, True],
        ["a", 12.0, 13.0, -1, True],
    ]
    index = SpanIndex(spans)
    assert index.calls("a") == 3
    assert index.busy("a") == pytest.approx(11.0)
    assert index.self_time("a") == pytest.approx(10.0 - 2.0 - 4.0 + 1.0)
    assert index.self_time("b") == pytest.approx(1.0)
    assert index.self_time("c") == pytest.approx(3.0)
    assert index.busy("missing") == 0.0 and index.tail_ms("missing") == 0.0


def test_recorder_nests_and_flags_reentrant_spans():
    recorder = SpanRecorder()

    def leaf(x):
        return x + 1

    def again(n):
        return traced_outer(n - 1) if n else traced_leaf(0)

    traced_leaf = recorder.wrap("leaf", leaf)
    traced_outer = recorder.wrap("outer", again)

    def items(n):
        yield from range(n)

    traced_items = recorder.wrap("gen", items)

    with recorder.span("root"):
        assert traced_outer(1) == 1
        assert list(traced_items(2)) == [0, 1]
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [
        ("root", -1, True),
        ("outer", 0, True),
        ("outer", 1, False),
        ("leaf", 2, True),
        ("gen", 0, True),   # one span per next(), the last ends the loop
        ("gen", 0, True),
        ("gen", 0, True),
    ]
    assert all(s[2] >= s[1] for s in recorder.spans)


def test_traced_run_restores_every_patch(program_on_path, tmp_path):
    from workloads import run_child

    before = target_bindings()
    result = run_child("measured-small", 0, max_configs=3, traced=True,
                       trace_dir=str(tmp_path))
    assert "error" not in result, result.get("error")
    assert target_bindings() == before
    assert set(result["layers"]) == set(PER_LAYER_UNITS) - {"trace.overhead_frac"}
    assert result["layers"]["campaign.calls"] == 3
    assert result["problems"] == []
    lines = (tmp_path / "measured-small.jsonl").read_text().splitlines()
    assert len(lines) == result["layers"]["trace.spans"]

    with pytest.raises(RuntimeError):
        with traced(SpanRecorder()):
            raise RuntimeError("boom")
    assert target_bindings() == before


# ----------------------------------------------------------------------
# Aggregation, checks and comparison
# ----------------------------------------------------------------------


def _fake(digest, run_s=1.0):
    return {
        "workload": "truth-paper", "seed": 0, "traced": False,
        "setup_s": [0.1, 0.2], "run_s": run_s, "peak_rss_mb": 100.0,
        "problems": [], "digest": digest,
        "quality": {"configs": 10, "mean_cluster_size": 1.5,
                    "singleton_frac": 0.8, "recall": 1.0, "precision": 0.5},
    }


def test_digest_mismatch_counts_as_error():
    runs = {"untraced": [_fake("aa"), _fake("aa", 2.0), _fake("bb")],
            "traced": None}
    summary = summarize("truth-paper", runs, expected={})
    assert summary["failed"] == 1
    assert summary["metrics"]["error_rate"]["value"] == pytest.approx(1 / 3)
    assert summary["metrics"]["run_s"]["value"] == pytest.approx(1.5)
    assert summary["metrics"]["setup_s"]["value"] == pytest.approx(0.15)


def test_expected_numbers_are_enforced():
    runs = {"untraced": [_fake("aa")], "traced": None}
    summary = summarize("truth-paper", runs, expected={"digest": "aa", "recall": 0.9})
    assert summary["failed"] == 1
    assert "recall" in summary["problems"]["repeat 1"][0]


def test_compare_verdicts():
    metric = Metric("s", "lower", 0.10)
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert verdict(metric, parent, [x * 0.8 for x in parent]) == "gain"
    assert verdict(metric, parent, [x * 1.3 for x in parent]) == "REGRESSION"
    assert verdict(metric, parent, [x * 1.02 for x in parent]) == "within bound"
    noisy = [5.0, 15.0] * 5
    assert verdict(metric, noisy, list(reversed(noisy))) == "unresolved"


# ----------------------------------------------------------------------
# The benchmark contract
# ----------------------------------------------------------------------


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == {
        name: (END_TO_END[name].unit, END_TO_END[name].better, END_TO_END[name].bound)
        for name in GATED
    }
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [
        (name, PER_LAYER_UNITS[name],
         "higher" if name in HIGHER_IS_BETTER else "lower")
        for name in LISTED_LAYER_METRICS
    ]


def test_smoke_run(tmp_path):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace-dir", str(tmp_path), "--out", str(out)],
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 * len(WORKLOADS)
    results = json.loads(out.read_text())["workloads"]
    assert set(results) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert f"{workload}.trace.overhead_frac" in line["metrics"]
        assert (tmp_path / f"{workload}.jsonl").exists()
