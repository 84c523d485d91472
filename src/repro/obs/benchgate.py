"""Benchmark regression gate over the committed ``BENCH_*.json`` artifacts.

The SAV-deployment study (Korczyński et al., PAPERS.md) runs the same
measurement campaign for years; its value comes from trajectory, which
means regressions must be caught when they land, not when someone
notices.  The benchmark suite already writes one JSON artifact per area
(``benchmarks/BENCH_engine.json`` etc.); this module records a baseline
history of their *measured* metrics (keys ending ``_seconds``) and fails
when a fresh artifact regresses past a configurable tolerance.

Only ``*_seconds`` metrics are gated: they are the wall-time
measurements.  Derived percentages and deterministic counts are carried
in the artifacts for humans but are either redundant or exact, so gating
them would double-count or add noise.

**Absolute slack** keeps the gate honest on real timers: relative
tolerance alone makes sub-millisecond baselines (e.g.
``cached_replay_seconds: 0.0003``) flap on scheduler noise, and a 0.0
baseline turns *any* positive reading into an infinite-ratio
regression.  A delta below ``absolute_slack`` seconds never regresses,
and a zero baseline regresses only when the fresh reading itself
exceeds the slack.

``spooftrack bench-check`` is the CLI face; CI runs it against the
committed history so a PR that slows any benchmark >15% (default) fails.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Default allowed slowdown before a metric counts as regressed.  Kept
#: below 0.20 so a genuine 20% slowdown always trips the gate.
DEFAULT_TOLERANCE = 0.15

#: Default absolute slack in seconds: deltas below this are timer noise
#: regardless of the relative tolerance.
DEFAULT_ABSOLUTE_SLACK = 0.005

#: Baseline file name inside the benchmarks directory.
HISTORY_BASENAME = "BENCH_history.json"

HISTORY_VERSION = 1


def _is_gated_metric(name: str, value) -> bool:
    return (
        name.endswith("_seconds")
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    )


def load_artifacts(directory: str) -> Dict[str, Dict[str, float]]:
    """Gated metrics per ``BENCH_*.json`` artifact (history excluded)."""
    artifacts: Dict[str, Dict[str, float]] = {}
    pattern = os.path.join(directory, "BENCH_*.json")
    for path in sorted(glob.glob(pattern)):
        name = os.path.basename(path)
        if name == HISTORY_BASENAME:
            continue
        with open(path) as handle:
            record = json.load(handle)
        if not isinstance(record, dict):
            continue
        artifacts[name] = {
            key: float(value)
            for key, value in record.items()
            if _is_gated_metric(key, value)
        }
    return artifacts


def default_history_path(directory: str) -> str:
    return os.path.join(directory, HISTORY_BASENAME)


def load_history(history_path: str) -> Dict[str, Dict[str, float]]:
    """Baseline metrics per artifact from a history file."""
    with open(history_path) as handle:
        payload = json.load(handle)
    if payload.get("version") != HISTORY_VERSION:
        raise ValueError(
            f"unsupported bench history version {payload.get('version')!r}"
        )
    baselines = payload.get("baselines", {})
    return {
        artifact: {key: float(value) for key, value in metrics.items()}
        for artifact, metrics in baselines.items()
    }


def write_history(directory: str, history_path: Optional[str] = None) -> str:
    """Record the current artifacts as the regression baseline."""
    from . import ensure_parent_dir

    path = history_path or default_history_path(directory)
    payload = {
        "version": HISTORY_VERSION,
        "note": "Baselines for `spooftrack bench-check`; regenerate with --update.",
        "baselines": load_artifacts(directory),
    }
    ensure_parent_dir(path)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@dataclass(frozen=True)
class Regression:
    """One gated metric that slowed past tolerance."""

    artifact: str
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        """Human rendering; avoids an ``inf%`` against a zero baseline."""
        if self.baseline > 0:
            change = f"({(self.ratio - 1.0) * 100.0:+.1f}%)"
        else:
            change = f"(+{(self.current - self.baseline) * 1000.0:.2f}ms)"
        return (
            f"{self.artifact}:{self.metric} "
            f"{self.baseline:.6f}s -> {self.current:.6f}s {change}"
        )


@dataclass
class BenchCheckResult:
    """Outcome of one bench-check run."""

    tolerance: float
    absolute_slack: float = DEFAULT_ABSOLUTE_SLACK
    checked: int = 0
    regressions: List[Regression] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    new_metrics: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.regressions

    def summary_lines(self) -> List[str]:
        lines = [
            f"bench-check: {self.checked} gated metrics, "
            f"tolerance {self.tolerance:.0%}, "
            f"slack {self.absolute_slack * 1000.0:g}ms"
        ]
        for reg in self.regressions:
            lines.append(f"  REGRESSION {reg.describe()}")
        for name in self.missing:
            lines.append(f"  missing from fresh artifacts: {name}")
        for name in self.new_metrics:
            lines.append(f"  new metric (no baseline yet): {name}")
        lines.append("bench-check: FAIL" if not self.passed else "bench-check: OK")
        return lines


def _regresses(
    baseline: float, value: float, tolerance: float, absolute_slack: float
) -> bool:
    """Regression predicate with the absolute-slack floor.

    * The delta must exceed ``absolute_slack`` seconds — anything smaller
      is timer noise at any ratio (this also covers sub-ms baselines).
    * Past the floor: a positive baseline regresses on the relative
      tolerance; a zero/non-positive baseline (a metric that used to be
      unmeasurably fast) regresses outright — the reading itself already
      exceeds the slack.
    """
    if value - baseline <= absolute_slack:
        return False
    if baseline > 0:
        return value > baseline * (1.0 + tolerance)
    return True


def check_benchmarks(
    directory: str,
    history_path: Optional[str] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    absolute_slack: float = DEFAULT_ABSOLUTE_SLACK,
) -> BenchCheckResult:
    """Compare fresh artifacts in ``directory`` against the baseline.

    A metric regresses when it exceeds the baseline by more than
    ``absolute_slack`` seconds *and* ``baseline * (1 + tolerance)`` (a
    zero baseline needs only the slack excess; see :func:`_regresses`).
    Improvements always pass; metrics present only on one side are
    reported but do not fail the gate (new benchmarks must be allowed to
    land, and CI compares committed artifacts against committed history).
    """
    if tolerance < 0:
        raise ValueError("tolerance cannot be negative")
    if absolute_slack < 0:
        raise ValueError("absolute_slack cannot be negative")
    path = history_path or default_history_path(directory)
    baselines = load_history(path)
    current = load_artifacts(directory)
    result = BenchCheckResult(
        tolerance=tolerance, absolute_slack=absolute_slack
    )
    for artifact, metrics in sorted(baselines.items()):
        fresh = current.get(artifact)
        if fresh is None:
            result.missing.append(artifact)
            continue
        for metric, baseline in sorted(metrics.items()):
            if metric not in fresh:
                result.missing.append(f"{artifact}:{metric}")
                continue
            result.checked += 1
            value = fresh[metric]
            if _regresses(baseline, value, tolerance, absolute_slack):
                result.regressions.append(
                    Regression(artifact, metric, baseline, value)
                )
    for artifact, metrics in sorted(current.items()):
        known = baselines.get(artifact, {})
        for metric in sorted(metrics):
            if artifact not in baselines:
                result.new_metrics.append(f"{artifact}:{metric}")
            elif metric not in known:
                result.new_metrics.append(f"{artifact}:{metric}")
    return result
