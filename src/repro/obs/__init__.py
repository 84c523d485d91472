"""repro.obs — end-to-end tracing, metrics, profiling, and serving.

The observability layer every other subsystem reports through:

* :class:`MetricsRegistry` — counters (deterministic logical events),
  gauges and histograms (measured data), lock-safe, with a
  Prometheus-format text dump.
* :class:`Tracer` — deterministic span trees (SHA-256 identities, wall
  durations as data only) exported as JSONL.
* :class:`PhaseTimer` / :class:`ProfileCapture` / :class:`Stopwatch` —
  monotonic timing and optional :mod:`cProfile` capture.
* :class:`RunManifest` — frozen run inputs + redacted environment,
  attached to reports.
* :class:`EventBus` — the one event stream: window, fault, phase,
  engine, span and log events, fanned out to live consumers.
* :class:`Logbook` — leveled, span-correlated structured logging
  (human or JSON-lines rendering), published to the bus.
* :class:`SloWatchdog` — declarative SLO rules riding the bus, tripping
  breach counters and flipping readiness.
* :class:`ObsServer` — threaded HTTP exporter: ``/metrics``,
  ``/healthz``, ``/readyz``, ``/manifest``, ``/traces``, SSE ``/events``.
* :mod:`~repro.obs.benchgate` — benchmark regression gate behind
  ``spooftrack bench-check``.
* :class:`Observability` — the bundle threaded through
  :class:`~repro.core.pipeline.SpoofTracker`, the engine, the
  measurement campaign, and the live runtime.

Everything here is stdlib-only and free when not enabled: call sites
guard on ``obs is None`` / ``registry is None``, so a run without
``--trace``/``--metrics`` pays nothing.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


def ensure_parent_dir(path: str) -> str:
    """Create the parent directory of ``path`` (and ancestors) if absent.

    Every artifact writer (traces, metrics, manifests, checkpoints,
    bench history) funnels through this, so ``--trace runs/a/b/t.jsonl``
    works without a prior ``mkdir -p``.  ``os.makedirs(exist_ok=True)``
    is atomic enough for concurrent writers: a racing sibling creating
    the same directory is not an error.  Returns ``path`` unchanged.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


from .bus import (  # noqa: E402 (ensure_parent_dir must exist first)
    EventBus,
    Subscription,
    strip_measured,
)
from .logbook import Logbook  # noqa: E402
from .manifest import (  # noqa: E402
    RunManifest,
    build_manifest,
    capture_environment,
    git_describe,
    library_versions,
)
from .metrics import (  # noqa: E402
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    record_build_info,
    record_engine_stats,
    record_fault_log,
)
from .profiling import PhaseTimer, ProfileCapture, Stopwatch  # noqa: E402
from .slo import (  # noqa: E402
    DEFAULT_SLOS,
    SloRule,
    SloWatchdog,
)
from .server import ObsServer  # noqa: E402
from .benchgate import (  # noqa: E402
    BenchCheckResult,
    Regression,
    check_benchmarks,
    default_history_path,
    load_artifacts,
    load_history,
    write_history,
)
from .tracing import (  # noqa: E402
    Span,
    Tracer,
    build_tree,
    load_spans,
    phase_durations,
    span_tree_signature,
)

__all__ = [
    "BenchCheckResult",
    "Counter",
    "DEFAULT_SLOS",
    "EventBus",
    "Gauge",
    "Histogram",
    "Logbook",
    "MetricsRegistry",
    "ObsServer",
    "Observability",
    "PhaseTimer",
    "ProfileCapture",
    "Regression",
    "RunManifest",
    "SloRule",
    "SloWatchdog",
    "Span",
    "Stopwatch",
    "Subscription",
    "Tracer",
    "build_manifest",
    "build_tree",
    "capture_environment",
    "check_benchmarks",
    "default_history_path",
    "ensure_parent_dir",
    "git_describe",
    "library_versions",
    "load_artifacts",
    "load_history",
    "load_spans",
    "parse_prometheus",
    "phase_durations",
    "record_build_info",
    "record_engine_stats",
    "record_fault_log",
    "span_tree_signature",
    "strip_measured",
    "write_history",
]


@dataclass
class Observability:
    """The instrumentation bundle one run threads through its layers.

    Any piece may be None — an ``Observability()`` with no tracer still
    collects metrics, a registry-less one still traces.  ``for_run``
    builds the fully armed bundle the CLI uses.
    """

    registry: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None
    profiler: Optional[ProfileCapture] = None
    timer: Optional[PhaseTimer] = field(default=None)
    bus: Optional[EventBus] = None
    logbook: Optional[Logbook] = None

    @classmethod
    def for_run(
        cls, run_name: str = "run", profile: bool = False
    ) -> "Observability":
        """Registry + tracer + bus (+ optional profiler) for one run.

        The tracer and the logbook publish to the bundle's bus.
        """
        registry = MetricsRegistry()
        record_build_info(registry)
        bus = EventBus()
        tracer = Tracer(run_name, bus=bus)
        return cls(
            registry=registry,
            tracer=tracer,
            profiler=ProfileCapture(enabled=profile),
            timer=PhaseTimer(registry),
            bus=bus,
            logbook=Logbook(tracer=tracer, bus=bus),
        )

    def span(self, name: str, **attrs):
        """Tracer span when tracing, else a no-op context manager."""
        if self.tracer is not None:
            return self.tracer.span(name, **attrs)
        return _NULL_CONTEXT

    @contextmanager
    def phase(self, name: str, **attrs):
        """One pipeline phase: a span *and* a phase-timer interval.

        Yields the open :class:`~repro.obs.tracing.Span` (None when
        tracing is unarmed) so callers can attach result attributes.
        On close the completed phase is published to the bus as a
        ``phase`` event (duration carried as a measured field).
        """
        with self.span(name, **attrs) as span:
            if self.timer is not None:
                with self.timer.phase(name):
                    yield span
            else:
                yield span
        if self.bus is not None:
            payload = dict(attrs)
            if span is not None:
                payload.update(span.attrs)
                payload["span"] = span.span_id
                payload["duration_seconds"] = span.duration_seconds
            self.bus.publish("phase", name=name, **payload)

    def capture(self):
        """Profiler capture when profiling, else a no-op context manager."""
        if self.profiler is not None and self.profiler.enabled:
            return self.profiler.capture()
        return _NULL_CONTEXT


class _NullContext:
    """Reusable no-op context manager (avoids allocating per call)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()
