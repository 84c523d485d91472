"""Zero-dependency metrics: counters, gauges, histograms, one registry.

Design rules, mirroring the rest of the reproduction:

* **Counters are deterministic.**  A counter counts *logical events* —
  configurations simulated, cache hits, traceroutes dropped — whose
  totals are a pure function of the seeded scenario.  Two runs of the
  same scenario must produce identical counter totals; the determinism
  tests pin exactly this.
* **Gauges and histograms carry measured data.**  Wall times and
  window latencies are real measurements; they vary run to
  run and are explicitly excluded from determinism comparisons
  (:meth:`MetricsRegistry.counter_totals` returns only the
  deterministic layer).
* **Lock-safe.**  Every mutation takes the registry lock, so a served
  run's scrapes read consistent snapshots.

The text dump (:meth:`MetricsRegistry.render_prometheus`) follows the
Prometheus exposition format so existing scrapers and ``promtool`` can
parse it, but nothing here imports anything outside the stdlib.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Histogram bucket upper bounds (seconds-flavored, log-spaced).  The
#: final implicit bucket is +Inf.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Optional[Mapping[str, str]]) -> LabelSet:
    """Canonical, hashable form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format label escaping (backslash, quote, newline)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return "{" + body + "}"


class Counter:
    """A monotonically increasing tally of logical events."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the tally."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time measurement (wall time, queue depth, ...)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bucketed distribution of measured values (latencies, sizes)."""

    __slots__ = ("name", "labels", "buckets", "counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        lock: threading.Lock,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum


class MetricsRegistry:
    """One process's metric store: named counters, gauges, histograms.

    Metric handles are created on first use and cached, so hot paths pay
    one dict lookup per event.  All families share a single registry
    lock — contention is negligible at the event rates involved, and a
    single lock keeps snapshots consistent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        self._help: Dict[str, str] = {}

    # -- handle creation -----------------------------------------------

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, _labelset(labels))
        with self._lock:
            handle = self._counters.get(key)
            if handle is None:
                handle = Counter(name, key[1], self._lock)
                self._counters[key] = handle
            if help and name not in self._help:
                self._help[name] = help
        return handle

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, _labelset(labels))
        with self._lock:
            handle = self._gauges.get(key)
            if handle is None:
                handle = Gauge(name, key[1], self._lock)
                self._gauges[key] = handle
            if help and name not in self._help:
                self._help[name] = help
        return handle

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = (name, _labelset(labels))
        with self._lock:
            handle = self._histograms.get(key)
            if handle is None:
                handle = Histogram(name, key[1], self._lock, buckets)
                self._histograms[key] = handle
            if help and name not in self._help:
                self._help[name] = help
        return handle

    # -- snapshots ------------------------------------------------------

    def counter_totals(self) -> Dict[str, float]:
        """The deterministic layer: every counter's total, by series.

        Keys are ``name{label="value",...}``; values are the tallies.
        This is what the determinism tests compare —
        gauges and histograms (measured data) are deliberately absent.
        """
        with self._lock:
            return {
                name + _render_labels(labels): counter.value
                for (name, labels), counter in sorted(self._counters.items())
            }

    def snapshot(self) -> Dict:
        """JSON-safe dump of every metric (for archiving)."""
        with self._lock:
            return {
                "counters": [
                    {"name": name, "labels": list(labels), "value": c.value}
                    for (name, labels), c in sorted(self._counters.items())
                ],
                "gauges": [
                    {"name": name, "labels": list(labels), "value": g.value}
                    for (name, labels), g in sorted(self._gauges.items())
                ],
                "histograms": [
                    {
                        "name": name,
                        "labels": list(labels),
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for (name, labels), h in sorted(self._histograms.items())
                ],
            }

    # -- rendering ------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus exposition-format text dump of every metric."""
        lines: List[str] = []
        with self._lock:
            seen_types: Dict[str, str] = {}

            def header(name: str, kind: str) -> None:
                if seen_types.get(name) == kind:
                    return
                seen_types[name] = kind
                help_text = self._help.get(name, "")
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")

            for (name, labels), counter in sorted(self._counters.items()):
                header(name, "counter")
                lines.append(f"{name}{_render_labels(labels)} {counter.value:g}")
            for (name, labels), gauge in sorted(self._gauges.items()):
                header(name, "gauge")
                lines.append(f"{name}{_render_labels(labels)} {gauge.value:g}")
            for (name, labels), histogram in sorted(self._histograms.items()):
                header(name, "histogram")
                cumulative = 0
                for bound, count in zip(histogram.buckets, histogram.counts):
                    cumulative += count
                    bucket_labels = labels + (("le", f"{bound:g}"),)
                    lines.append(
                        f"{name}_bucket{_render_labels(bucket_labels)} {cumulative}"
                    )
                cumulative += histogram.counts[-1]
                inf_labels = labels + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_render_labels(inf_labels)} {cumulative}")
                lines.append(f"{name}_sum{_render_labels(labels)} {histogram.sum:g}")
                lines.append(f"{name}_count{_render_labels(labels)} {histogram.count}")
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path: str) -> str:
        """Write the Prometheus text dump to ``path``; returns the path."""
        from . import ensure_parent_dir

        ensure_parent_dir(path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render_prometheus())
        return path

    def write_json(self, path: str) -> str:
        """Write the JSON snapshot to ``path``; returns the path."""
        from . import ensure_parent_dir

        ensure_parent_dir(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse a Prometheus text dump back into ``{series: value}``.

    Helper for tests and reconciliation checks — inverse of
    :meth:`MetricsRegistry.render_prometheus` for scalar series.  The
    map is flat and *sample-level*: histogram internals appear under
    their exposition names (``name_bucket{le="..."}``, ``name_sum``,
    ``name_count``, with cumulative bucket values), exactly as rendered.
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        values[series] = float(value)
    return values


def record_engine_stats(registry: MetricsRegistry, stats) -> None:
    """Fold an :class:`~repro.core.engine.EngineStats` delta into metrics.

    Deterministic counters mirror the stats fields one-for-one, so the
    metrics dump always reconciles with the report's ``engine_stats``;
    the measured wall time lands in a gauge.
    """
    pairs: Iterable[Tuple[str, float, str]] = (
        ("repro_engine_configs_requested_total", stats.configs_requested,
         "configurations asked of the simulation engine"),
        ("repro_engine_configs_simulated_total", stats.configs_simulated,
         "Gauss-Seidel fixpoints run"),
        ("repro_engine_cache_hits_total", stats.cache_hits,
         "requests served from the outcome cache"),
        ("repro_engine_warm_starts_total", stats.warm_starts,
         "simulations seeded from a parent outcome"),
        ("repro_engine_passes_saved_total", stats.passes_saved,
         "estimated Gauss-Seidel passes avoided by warm starts"),
    )
    for name, value, help_text in pairs:
        registry.counter(name, help=help_text).inc(value)
    registry.gauge(
        "repro_engine_wall_seconds",
        help="seconds spent inside the simulation engine",
    ).add(stats.wall_time)


def record_build_info(registry: MetricsRegistry) -> None:
    """Set the ``repro_build_info`` gauge on ``registry``.

    The standard info-metric idiom: constant value 1 with the build
    identity carried in labels, so every scrape is attributable to the
    package version, interpreter, and platform that produced it.
    """
    import platform as platform_module
    import sys

    from .. import __version__

    registry.gauge(
        "repro_build_info",
        help="build identity of the serving process (value is always 1)",
        labels={
            "version": __version__,
            "python": sys.version.split()[0],
            "platform": platform_module.platform(),
        },
    ).set(1)


def record_fault_log(registry: MetricsRegistry, log_by_kind: Mapping[str, int]) -> None:
    """Fold a fault-log delta (kind → fired count) into metrics."""
    for kind, count in sorted(log_by_kind.items()):
        registry.counter(
            "repro_faults_injected_total",
            help="faults fired by the injector, by kind",
            labels={"kind": kind},
        ).inc(count)
