#!/usr/bin/env python3
"""Headline-pipeline benchmark: end-to-end and per-layer numbers.

Runs the paper's loop (deploy the schedule, measure catchments, refine
clusters, attribute volume by NNLS) through the public APIs of
``repro.core.pipeline`` and ``repro.live.service`` on three workloads,
checks the outputs, and prints every metric with its unit and sample
count.  Run from anywhere; the program is imported from ``src/``::

    python3 benchmarks/pipeline/run.py --seed 0            # all workloads
    python3 benchmarks/pipeline/run.py --workload live-adaptive --seed 3 \\
        --seconds 40 --trace 0                              # one workload
    python3 benchmarks/pipeline/run.py --seed 0 --out parent.json
    python3 benchmarks/pipeline/run.py --compare parent.json change.json

Every timed repeat is a fresh child ``python`` process with one worker;
children run one at a time, and repeats go round-robin across workloads
(repeat i of every workload before repeat i+1), because on a shared
machine the same run's time moves by tens of percent from one process
to the next.  After the timed repeats, one traced child per workload
wraps each layer's entry point (see ``layers.py``) and writes its spans
to ``traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics BENCHMARK.json lists, with ``--trace 1`` the
per-layer metrics it lists, and both otherwise (prefixed by workload
when several ran).  A failed output check makes ``correct`` false and
the exit code 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

from layers import LISTED_LAYER_METRICS, PER_LAYER_UNITS
from stats import quartiles, relative_spread, tail_percentile
from workloads import WORKLOADS, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
GATE_PATH = HERE / "BENCH_pipeline.json"
TRACE_DIR = HERE / "traces"

#: A child that runs longer than this is killed and counted as failed;
#: with a 40 s budget a run still ends within 180 s.
CHILD_TIMEOUT_S = 120.0
#: ``--smoke``: truncated schedules, one repeat.
SMOKE_CONFIGS = 20
#: Absolute floor under the relative bound of metrics in seconds.
SECONDS_FLOOR = 0.05


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric.

    ``bound`` is how far the change's median may be worse than the
    parent's, as a share of the parent's median.  ``gated`` metrics are
    the ones BENCHMARK.json lists: reported on every workload and never
    zero.  ``exact`` metrics are deterministic; any difference is a
    change.
    """

    unit: str
    better: str
    bound: float
    gated: bool = False
    exact: bool = False


#: Timing bounds are 0.25, the widest BENCHMARK.json allows: over ten
#: seeds the machine's own drift put the IQR of `truth-paper` run_s at
#: 17% of its median (README.md, "Spread").
END_TO_END: Dict[str, Metric] = {
    "run_s": Metric("s", "lower", 0.25, gated=True),
    "configs_per_s": Metric("1/s", "higher", 0.25, gated=True),
    "setup_s": Metric("s", "lower", 0.25, gated=True),
    "peak_rss_mb": Metric("MB", "lower", 0.05, gated=True),
    "step_p50_ms": Metric("ms", "lower", 0.25),
    "step_tail_ms": Metric("ms", "lower", 0.25),
    "error_rate": Metric("fraction", "lower", 0.0),
    "mean_cluster_size": Metric("ASes", "lower", 0.0, exact=True),
    "singleton_frac": Metric("fraction", "higher", 0.0, exact=True),
    "recall": Metric("fraction", "higher", 0.0, exact=True),
    "precision": Metric("fraction", "higher", 0.0, exact=True),
}
GATED = [name for name, metric in END_TO_END.items() if metric.gated]
QUALITY = ("mean_cluster_size", "singleton_frac", "recall", "precision")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def spawn(spec: Dict) -> Dict:
    """Run one child to completion and return its result."""
    print(
        f"# {spec['workload']} seed {spec['seed']}"
        f"{' traced' if spec['traced'] else ''} ...",
        file=sys.stderr,
        flush=True,
    )
    command = [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {**spec, "error": f"timed out after {CHILD_TIMEOUT_S:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {
            **spec,
            "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
        }


def child_main(payload: str) -> int:
    sys.path.insert(0, str(SRC))
    spec = json.loads(payload)
    result = run_child(
        spec["workload"], spec["seed"], spec.get("max_configs"),
        spec["traced"], spec.get("trace_dir", ""),
    )
    print(json.dumps(result))
    return 0


def collect(
    workloads: Sequence[str],
    seed: int,
    repeats: int,
    seconds: Optional[float],
    trace: Optional[int],
    max_configs: Optional[int],
    trace_dir: str,
) -> Dict[str, Dict]:
    """Timed repeats round-robin across workloads, then the traced runs.

    With ``seconds``, rounds continue while another round of the last
    round's length still fits in the budget (at least one round).  With
    ``trace == 1`` one untraced round runs, as the overhead reference.
    """
    runs = {w: {"untraced": [], "traced": None} for w in workloads}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for workload in workloads:
            runs[workload]["untraced"].append(
                spawn({"workload": workload, "seed": seed,
                       "max_configs": max_configs, "traced": False})
            )
        now = time.perf_counter()
        done = len(runs[workloads[0]]["untraced"])
        if trace == 1:
            break
        if seconds is not None:
            if now - start + (now - round_start) > seconds:
                break
        elif done >= repeats:
            break
    if trace != 0:
        for workload in workloads:
            runs[workload]["traced"] = spawn(
                {"workload": workload, "seed": seed, "max_configs": max_configs,
                 "traced": True, "trace_dir": trace_dir}
            )
    return runs


# ----------------------------------------------------------------------
# Aggregation and checks
# ----------------------------------------------------------------------


def load_expected(seed: int, max_configs: Optional[int]) -> Dict:
    """Committed digests and quality numbers (seed 0, full schedule only)."""
    if seed != 0 or max_configs is not None:
        return {}
    return json.loads(EXPECTED_PATH.read_text())["workloads"]


def failures(result: Dict, reference: Optional[str], expected: Dict) -> List[str]:
    """Why one child's result does not count (empty when it does)."""
    if "error" in result:
        return [result["error"].strip().splitlines()[-1]]
    found = list(result["problems"])
    if reference is not None and result["digest"] != reference:
        found.append(f"digest {result['digest'][:12]} != {reference[:12]}")
    for key, value in expected.items():
        if key != "digest" and result["quality"].get(key) != value:
            found.append(f"{key} {result['quality'].get(key)!r} != expected {value!r}")
    return found


def summarize(workload: str, runs: Dict, expected: Dict) -> Dict:
    """Per-workload metrics, per-repeat samples and failures."""
    untraced: List[Dict] = runs["untraced"]
    traced: Optional[Dict] = runs["traced"]
    everything = untraced + ([traced] if traced is not None else [])
    # Without a committed digest, the most common one (earliest on a tie).
    digests = [r["digest"] for r in everything if "digest" in r]
    reference = expected.get("digest") or (
        max(digests, key=digests.count) if digests else None
    )
    problems = {}
    good = []
    for index, result in enumerate(everything):
        found = failures(result, reference, expected)
        if found:
            label = "traced" if result is traced else f"repeat {index + 1}"
            problems[label] = found
        elif result is not traced:
            good.append(result)

    samples: Dict[str, List[float]] = {
        "run_s": [r["run_s"] for r in good],
        "configs_per_s": [r["quality"]["configs"] / r["run_s"] for r in good],
        "setup_s": [median(r["setup_s"]) for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    metrics: Dict[str, Dict] = {}
    notes: Dict[str, str] = {}
    if good:
        pooled_setup = [s for r in good for s in r["setup_s"]]
        values = {
            "run_s": median(samples["run_s"]),
            "configs_per_s": median(samples["configs_per_s"]),
            "setup_s": median(pooled_setup),
            "peak_rss_mb": median(samples["peak_rss_mb"]),
        }
        for name in values:
            count = len(pooled_setup) if name == "setup_s" else len(good)
            notes[name] = f"median of {count}"
        if "step_s" in good[0]:
            steps_ms = [s * 1e3 for r in good for s in r["step_s"]]
            pct, tail = tail_percentile(steps_ms)
            values["step_p50_ms"] = median(steps_ms)
            values["step_tail_ms"] = tail
            notes["step_p50_ms"] = f"p50 of {len(steps_ms)} steps"
            notes["step_tail_ms"] = f"p{pct:g} of {len(steps_ms)} steps"
            samples["step_p50_ms"] = [
                median(r["step_s"]) * 1e3 for r in good
            ]
            samples["step_tail_ms"] = [
                tail_percentile(r["step_s"])[1] * 1e3 for r in good
            ]
        values.update({key: good[0]["quality"][key] for key in QUALITY})
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END[name].unit}
    attempted = len(everything)
    metrics["error_rate"] = {
        "value": len(problems) / attempted, "unit": END_TO_END["error_rate"].unit
    }
    notes["error_rate"] = f"{len(problems)} of {attempted} runs"

    layers = None
    if traced is not None and "layers" in traced:
        layers = dict(traced["layers"])
        base = metrics.get("run_s", {}).get("value")
        layers["trace.overhead_frac"] = (
            traced["run_s"] / base - 1.0 if base else 0.0
        )
    return {
        "metrics": metrics,
        "notes": notes,
        "samples": samples,
        "layers": layers,
        "digest": reference,
        "configs": good[0]["quality"]["configs"] if good else None,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def render(summaries: Dict[str, Dict]) -> str:
    lines = []
    for workload, summary in summaries.items():
        lines.append(
            f"== {workload}: {summary['configs']} configs, "
            f"digest {str(summary['digest'])[:16]}"
        )
        lines.append(f"   {'metric':<18} {'value':>14}  {'unit':<9} samples")
        for name, entry in summary["metrics"].items():
            spread = ""
            if len(summary["samples"].get(name, ())) > 1:
                spread = f", IQR {relative_spread(summary['samples'][name]):.1%}"
            lines.append(
                f"   {name:<18} {entry['value']:>14.6g}  {entry['unit']:<9} "
                f"{summary['notes'].get(name, 'deterministic')}{spread}"
            )
        if summary["layers"] is not None:
            lines.append("   per layer (traced run):")
            for name, unit in PER_LAYER_UNITS.items():
                lines.append(
                    f"   {name:<30} {summary['layers'][name]:>14.6g}  {unit}"
                )
        for label, found in summary["problems"].items():
            lines.append(f"   FAILED {label}: {'; '.join(found)}")
    return "\n".join(lines)


def result_line(summaries: Dict[str, Dict], trace: Optional[int]) -> Dict:
    prefix = len(summaries) > 1 or trace is None
    metrics: Dict[str, Dict] = {}
    for workload, summary in summaries.items():
        head = f"{workload}." if prefix else ""
        if trace != 1:
            for name in GATED:
                if name in summary["metrics"]:
                    metrics[head + name] = summary["metrics"][name]
        if trace != 0 and summary["layers"] is not None:
            for name in LISTED_LAYER_METRICS:
                metrics[head + name] = {
                    "value": summary["layers"][name],
                    "unit": PER_LAYER_UNITS[name],
                }
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_gate(summaries: Dict[str, Dict], seed: int, repeats: int) -> None:
    """``BENCH_pipeline.json`` for ``spooftrack bench-check``."""
    record = {"cpu_count": os.cpu_count(), "seed": seed, "repeats": repeats}
    for workload, summary in summaries.items():
        metrics = summary["metrics"]
        record[f"{workload}_run_seconds"] = round(metrics["run_s"]["value"], 4)
        record[f"{workload}_setup_seconds"] = round(metrics["setup_s"]["value"], 4)
    GATE_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def _load_side(pattern: str) -> Dict[str, Dict]:
    """Merge every results file matching ``pattern``, samples in file order."""
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise SystemExit(f"no results file matches {pattern!r}")
    merged: Dict[str, Dict] = {}
    for path in paths:
        for workload, entry in json.loads(Path(path).read_text())["workloads"].items():
            into = merged.setdefault(
                workload, {"samples": {}, "metrics": entry["metrics"]}
            )
            for name, values in entry["samples"].items():
                into["samples"].setdefault(name, []).extend(values)
    return merged


def pairs_won(metric: Metric, parent: List[float], change: List[float]) -> int:
    """Parent/change pairs (repeat i with repeat i) the change won."""
    sign = 1.0 if metric.better == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if (c - p) * sign < 0)


def verdict(metric: Metric, parent: List[float], change: List[float]) -> str:
    """The choosing-metrics §8 call for one metric on one workload."""
    sign = 1.0 if metric.better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    worse_by = (c_med - p_med) * sign
    pairs = min(len(parent), len(change))
    won = pairs_won(metric, parent, change)
    if won >= 0.9 * pairs and worse_by < 0 and -worse_by > p_q3 - p_q1:
        return "gain" if pairs >= 10 else "gain? (<10 pairs)"
    if all((c - p) * sign < 0 for p in parent for c in change):
        return "better in every run"
    if max(relative_spread(parent), relative_spread(change)) > metric.bound:
        return "unresolved"
    floor = SECONDS_FLOOR if metric.unit == "s" else 0.0
    if worse_by > max(metric.bound * abs(p_med), floor):
        return "REGRESSION"
    return "within bound"


def compare(parent_pattern: str, change_pattern: str) -> int:
    parent, change = _load_side(parent_pattern), _load_side(change_pattern)
    bad = 0
    print(
        f"{'workload':<15} {'metric':<18} {'parent med [q1, q3]':>34} "
        f"{'change med [q1, q3]':>34} {'won':>7}  verdict"
    )
    for workload in sorted(set(parent) & set(change)):
        for name, metric in END_TO_END.items():
            ps = parent[workload]["samples"].get(name)
            cs = change[workload]["samples"].get(name)
            if ps and cs:
                call = verdict(metric, ps, cs)
                shown = (_quartile_text(ps), _quartile_text(cs))
                tally = f"{pairs_won(metric, ps, cs)}/{min(len(ps), len(cs))}"
            else:
                # Deterministic metrics and error_rate: one value per side.
                p = parent[workload]["metrics"].get(name, {}).get("value")
                c = change[workload]["metrics"].get(name, {}).get("value")
                if p is None and c is None:
                    continue
                worse = c != p if metric.exact else (c or 0) > (p or 0)
                call = "CHANGED" if worse else "same"
                shown, tally = (str(p), str(c)), ""
            bad += call in ("REGRESSION", "CHANGED")
            print(
                f"{workload:<15} {name:<18} {shown[0]:>34} {shown[1]:>34} "
                f"{tally:>7}  {call}"
            )
    return 1 if bad else 0


def _quartile_text(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Headline-pipeline benchmark (see README.md).",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0,
                        help="attack seed (source placement, traffic)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per workload (ignored with --seconds)")
    parser.add_argument("--seconds", type=float,
                        help="time budget for the timed repeats instead of --repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed repeats only; 1: one timed and one "
                             "traced run; default: both")
    parser.add_argument("--smoke", action="store_true",
                        help=f"first {SMOKE_CONFIGS} configurations, one repeat")
    parser.add_argument("--out", help="write all samples and metrics as JSON")
    parser.add_argument("--trace-dir", default=str(TRACE_DIR),
                        help="where traced runs write <workload>.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --out results (glob patterns)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args.child)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    max_configs = SMOKE_CONFIGS if args.smoke else None
    repeats = 1 if args.smoke else args.repeats
    runs = collect(
        workloads, args.seed, repeats, None if args.smoke else args.seconds,
        args.trace, max_configs, args.trace_dir,
    )
    expected = load_expected(args.seed, max_configs)
    summaries = {
        w: summarize(w, runs[w], expected.get(w, {})) for w in workloads
    }
    print(render(summaries))
    line = result_line(summaries, args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "cpu_count": os.cpu_count(),
             "workloads": summaries}, indent=1) + "\n")
    # Only the default full run refreshes the committed gate artifact.
    if (
        line["correct"] and not args.smoke and args.trace is None
        and len(workloads) == len(WORKLOADS)
    ):
        write_gate(summaries, args.seed, len(runs[workloads[0]]["untraced"]))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
