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
* **Lock-safe and mergeable.**  Every mutation takes the registry
  lock, and a registry can absorb another registry's snapshot with
  :meth:`MetricsRegistry.merge` — e.g. to fold partial runs, or a
  parsed scrape, into one total.

The text dump (:meth:`MetricsRegistry.render_prometheus`) follows the
Prometheus exposition format so existing scrapers and ``promtool`` can
parse it, but nothing here imports anything outside the stdlib.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
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

    # -- snapshots and merging -----------------------------------------

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
        """JSON-safe dump of every metric (for merging or archiving)."""
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

    def merge(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram tallies add; gauges take the incoming
        value (last writer wins — gauges are point-in-time).
        """
        for entry in snapshot.get("counters", ()):
            labels = dict(tuple(pair) for pair in entry["labels"])
            self.counter(entry["name"], labels=labels).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            labels = dict(tuple(pair) for pair in entry["labels"])
            self.gauge(entry["name"], labels=labels).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            labels = dict(tuple(pair) for pair in entry["labels"])
            histogram = self.histogram(
                entry["name"], labels=labels, buckets=tuple(entry["buckets"])
            )
            with self._lock:
                if list(histogram.buckets) != list(entry["buckets"]):
                    raise ValueError(
                        f"histogram {entry['name']} bucket mismatch on merge"
                    )
                for index, count in enumerate(entry["counts"]):
                    histogram.counts[index] += count
                histogram._sum += entry["sum"]
                histogram._count += entry["count"]

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
    For a structurally-aware inverse — histograms reassembled with
    de-cumulated buckets, ready to :meth:`MetricsRegistry.merge` — use
    :func:`parse_prometheus_metrics`.
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        values[series] = float(value)
    return values


#: One exposition sample line: ``name{labels} value`` (labels optional).
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)

#: Exposition-format label-value unescapes (inverse of
#: :func:`_escape_label_value`).
_LABEL_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def _parse_label_body(body: str) -> LabelSet:
    """Parse the inside of ``{...}`` back into a canonical label set."""
    labels: List[Tuple[str, str]] = []
    index = 0
    length = len(body)
    while index < length:
        if body[index] == ",":
            index += 1
            continue
        eq = body.index("=", index)
        key = body[index:eq].strip()
        if body[eq + 1] != '"':
            raise ValueError(f"label value for {key!r} is not quoted")
        index = eq + 2
        chars: List[str] = []
        while True:
            if index >= length:
                raise ValueError(f"unterminated label value for {key!r}")
            char = body[index]
            if char == "\\":
                escape = body[index + 1] if index + 1 < length else ""
                chars.append(_LABEL_UNESCAPES.get(escape, "\\" + escape))
                index += 2
                continue
            if char == '"':
                index += 1
                break
            chars.append(char)
            index += 1
        labels.append((key, "".join(chars)))
    return tuple(sorted(labels))


@dataclass
class ParsedMetrics:
    """Structured form of a Prometheus text dump.

    ``counters``/``gauges`` map ``(name, labelset) -> value``;
    ``histograms`` map ``(name, labelset) -> {"buckets", "counts",
    "sum", "count"}`` with the bucket counts **de-cumulated** back to
    per-bucket tallies (the exposition format renders them cumulative).
    ``kinds`` and ``helps`` carry the ``# TYPE`` / ``# HELP`` headers.
    """

    counters: Dict[Tuple[str, LabelSet], float] = field(default_factory=dict)
    gauges: Dict[Tuple[str, LabelSet], float] = field(default_factory=dict)
    histograms: Dict[Tuple[str, LabelSet], Dict] = field(default_factory=dict)
    kinds: Dict[str, str] = field(default_factory=dict)
    helps: Dict[str, str] = field(default_factory=dict)

    def as_snapshot(self) -> Dict:
        """A :meth:`MetricsRegistry.merge`-compatible snapshot.

        Non-finite counter values (``NaN``/``inf`` — a damaged scrape,
        never produced by a real registry) are dropped rather than
        silently poisoning every later increment; gauges keep them
        verbatim, as gauges are point-in-time measurements and ``NaN``
        is a legitimate "no data" reading.
        """
        import math

        return {
            "counters": [
                {"name": name, "labels": list(labels), "value": value}
                for (name, labels), value in sorted(self.counters.items())
                if math.isfinite(value)
            ],
            "gauges": [
                {"name": name, "labels": list(labels), "value": value}
                for (name, labels), value in sorted(self.gauges.items())
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": list(labels),
                    "buckets": list(data["buckets"]),
                    "counts": list(data["counts"]),
                    "sum": data["sum"],
                    "count": data["count"],
                }
                for (name, labels), data in sorted(self.histograms.items())
            ],
        }


def parse_prometheus_metrics(text: str) -> ParsedMetrics:
    """Parse a text dump back into typed families (full round-trip).

    The structural inverse of :meth:`MetricsRegistry.render_prometheus`:
    ``# TYPE`` headers type each family, histogram ``_bucket``/``_sum``
    /``_count`` samples are reassembled per label set with bucket counts
    de-cumulated (``+Inf`` implicit), and label values are unescaped.
    ``registry.merge(parse_prometheus_metrics(text).as_snapshot())``
    therefore reconstructs the dumping registry's metrics exactly —
    including histograms, which the flat :func:`parse_prometheus` map
    only exposes sample by sample.
    """
    parsed = ParsedMetrics()
    raw_hist: Dict[Tuple[str, LabelSet], Dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            parsed.helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            parsed.kinds[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        name = match.group("name")
        labels = _parse_label_body(match.group("labels") or "")
        value = float(match.group("value"))
        for suffix in ("_bucket", "_sum", "_count"):
            family = name[: -len(suffix)]
            if name.endswith(suffix) and parsed.kinds.get(family) == "histogram":
                bare = tuple(pair for pair in labels if pair[0] != "le")
                entry = raw_hist.setdefault(
                    (family, bare), {"cumulative": [], "sum": 0.0, "count": 0}
                )
                if suffix == "_bucket":
                    le = dict(labels).get("le", "+Inf")
                    bound = float("inf") if le == "+Inf" else float(le)
                    entry["cumulative"].append((bound, value))
                elif suffix == "_sum":
                    entry["sum"] = value
                else:
                    entry["count"] = int(value)
                break
        else:
            if parsed.kinds.get(name) == "counter":
                parsed.counters[(name, labels)] = value
            else:
                parsed.gauges[(name, labels)] = value
    for (family, labels), entry in raw_hist.items():
        ordered = sorted(entry["cumulative"])
        counts: List[int] = []
        previous = 0.0
        for _bound, cumulative in ordered:
            counts.append(int(cumulative - previous))
            previous = cumulative
        parsed.histograms[(family, labels)] = {
            "buckets": [b for b, _ in ordered if b != float("inf")],
            "counts": counts,
            "sum": entry["sum"],
            "count": entry["count"],
        }
    return parsed


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
        ("repro_engine_retries_total", stats.retries,
         "retries spent on injected faults"),
        ("repro_engine_faults_bypassed_total", stats.faults_bypassed,
         "simulations that ran with injection suppressed after retry exhaustion"),
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


def record_resource_sample(
    registry: MetricsRegistry,
    rss_bytes: float,
    open_fds: int,
    threads: int,
) -> None:
    """Record one process-resource sample (soak sentinel feed).

    Gauges, not counters: resource levels are measured facts about this
    process, excluded from determinism comparisons like every other
    measured value.
    """
    registry.gauge(
        "repro_resource_rss_bytes",
        help="resident set size of the serving process",
    ).set(float(rss_bytes))
    registry.gauge(
        "repro_resource_open_fds",
        help="open file descriptors held by the serving process",
    ).set(float(open_fds))
    registry.gauge(
        "repro_resource_threads",
        help="live threads in the serving process",
    ).set(float(threads))
    registry.counter(
        "repro_resource_samples_total",
        help="resource sentinel samples taken",
    ).inc()
