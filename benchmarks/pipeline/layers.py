"""Per-layer tracing of the pipeline from outside the program.

The traced run wraps the public entry point of each layer by
monkeypatching a module or class attribute, records one span per call
in memory (name, start, end, parent) and restores every attribute
afterwards.  Nothing under ``src/`` knows it is being traced.

Layers are named after the modules they live in.  Each span name is
``<layer>.<entry>``; busy time sums only the outermost span of a name,
so a re-entrant entry point (``engine.simulate`` opened by
``iter_simulate`` around ``simulate_many``) is not counted twice.

Importing this module imports nothing from the program: targets are
resolved when :func:`traced` installs them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from stats import percentile, tail_percentile

#: Span record layout: [name, start, end, parent index (-1 = root),
#: outermost] where ``outermost`` is False when a span of the same name
#: was already open.
NAME, START, END = range(3)

Note = Callable[[Dict[str, float], object, tuple], None]


class SpanRecorder:
    """Collects spans and boundary counts in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self._open[name] == 0])
        self._stack.append(index)
        self._open[name] += 1
        self.spans[index][START] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        record = self.spans[index]
        record[END] = time.perf_counter()
        self._stack.pop()
        self._open[record[NAME]] -= 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable, note: Optional[Note] = None):
        """A stand-in for ``fn`` that records one span per call.

        Generator functions get one span per ``next()``, so time the
        consumer spends between items is never charged to the layer.
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        open_, close, counts = self.open, self.close, self.counts

        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if note is not None:
                note(counts, result, args)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield item
            finally:
                inner.close()

        return traced

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, _) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                        }
                    )
                )
                handle.write("\n")


# ----------------------------------------------------------------------
# Boundary counts
# ----------------------------------------------------------------------


def _note_passes(counts, outcome, args) -> None:
    counts["bgp.passes"] += outcome.passes


def _note_trace(counts, trace, args) -> None:
    counts["traceroute.traces"] += trace is not None


def _note_repair(counts, result, args) -> None:
    counts["repair.dropped"] += result[1] is not None


def _note_observations(counts, result, args) -> None:
    counts["catchment.observations"] += len(args[0])


def _note_matrix(counts, result, args) -> None:
    rows, cols = args[0].shape
    counts["localization.rows"] += rows
    counts["localization.cols"] += cols


#: ``(span name, module, class or None for a module attribute, attribute,
#: note)``.  Classes are patched rather than instances because the
#: instances are built inside set-up (the live service's engine and
#: controller) or inside the timed call (``ClusterState``,
#: ``CatchmentHistory``).  The repair and catchment functions are patched
#: where ``MeasurementCampaign.measure`` looks them up.
TARGETS: Tuple[Tuple[str, str, Optional[str], str, Optional[Note]], ...] = (
    ("engine.simulate", "repro.core.engine", "SimulationEngine", "simulate_many", None),
    ("engine.simulate", "repro.core.engine", "SimulationEngine", "iter_simulate", None),
    ("bgp.simulate", "repro.bgp.simulator", "RoutingSimulator", "simulate", _note_passes),
    ("campaign.measure", "repro.measurement.campaign", "MeasurementCampaign", "measure", None),
    ("collectors.observe", "repro.measurement.collectors", "BGPCollectorSet", "observe", None),
    ("atlas.all_traceroutes", "repro.measurement.atlas", "AtlasProbeFleet", "all_traceroutes", None),
    ("traceroute.measure", "repro.measurement.traceroute", "TracerouteEngine", "measure", _note_trace),
    ("repair.as_path", "repro.measurement.campaign", None, "as_path_with_reason", _note_repair),
    ("repair.gap_index", "repro.measurement.campaign", None, "build_gap_index", None),
    ("repair.segment_index", "repro.measurement.campaign", None, "build_bgp_segment_index", None),
    ("catchment.resolve", "repro.measurement.campaign", None, "resolve_observations", _note_observations),
    ("catchment.impute", "repro.measurement.catchment", "CatchmentHistory", "catchment_maps", None),
    ("clustering.refine", "repro.core.clustering", "ClusterState", "refine_with_catchments", None),
    ("strategy.propose", "repro.strategy.builtin", "GreedyStrategy", "propose", None),
    ("strategy.converged", "repro.strategy.builtin", "GreedyStrategy", "converged", None),
    ("controller.select", "repro.live.controller", "AdaptiveController", "select_next", None),
    ("controller.stop", "repro.live.controller", "AdaptiveController", "should_stop", None),
    ("localization.solve", "repro.core.localization", None, "estimate_cluster_volumes", None),
    ("localization.nnls", "repro.core.localization", None, "nnls", _note_matrix),
    ("attributor.attribution", "repro.live.attributor", "LiveAttributor", "attribution", None),
    ("traffic.link_volumes", "repro.core.pipeline", None, "link_volumes", None),
    ("traffic.link_volumes", "repro.live.service", None, "link_volumes", None),
)

_MISSING = object()


def _owner(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls is not None else owner


def target_bindings() -> Dict[Tuple[str, Optional[str], str], object]:
    """What each patched attribute holds right now (for restore checks).

    The value is the owner's own ``__dict__`` entry, or a sentinel when
    the attribute is inherited, so a leftover wrapper is always visible.
    """
    return {
        (module, cls, attr): vars(_owner(module, cls)).get(attr, _MISSING)
        for _, module, cls, attr, _ in TARGETS
    }


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[None]:
    """Install every wrapper for the ``with`` body, then restore them all."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for name, module, cls, attr, note in TARGETS:
            owner = _owner(module, cls)
            undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), note))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Derived per-layer metrics
# ----------------------------------------------------------------------


class SpanIndex:
    """Per-name durations, outermost flags and child-covered time."""

    def __init__(self, spans: List[list]) -> None:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self._by_name: Dict[str, List[Tuple[float, bool, float]]] = defaultdict(list)
        for index, (name, start, end, _, outermost) in enumerate(spans):
            self._by_name[name].append((end - start, outermost, covered[index]))

    def calls(self, name: str) -> int:
        return len(self._by_name.get(name, ()))

    def durations(self, name: str) -> List[float]:
        return [d for d, outer, _ in self._by_name.get(name, ()) if outer]

    def busy(self, name: str) -> float:
        """Seconds inside outermost spans of ``name``."""
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Busy seconds not covered by any child span."""
        return sum(
            d - covered for d, outer, covered in self._by_name.get(name, ()) if outer
        )

    def p50_ms(self, name: str) -> float:
        values = self.durations(name)
        return percentile(values, 50.0) * 1e3 if values else 0.0

    def tail_ms(self, name: str) -> float:
        return tail_percentile(self.durations(name))[1] * 1e3


#: Per-layer metric name → unit, in report order.  Every traced run
#: reports every metric; a layer a workload never calls reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "phase.schedule_s": "s",
    "phase.simulate_s": "s",
    "phase.measure_s": "s",
    "phase.cluster_s": "s",
    "phase.attribute_s": "s",
    "phase.premeasure_s": "s",
    "engine.busy_s": "s",
    "engine.configs_simulated": "count",
    "engine.cache_hit_ratio": "ratio",
    "engine.warm_starts": "count",
    "engine.passes_saved": "count",
    "bgp.calls": "count",
    "bgp.busy_s": "s",
    "bgp.simulate_p50_ms": "ms",
    "bgp.simulate_tail_ms": "ms",
    "bgp.passes": "count",
    "campaign.calls": "count",
    "campaign.busy_s": "s",
    "campaign.self_s": "s",
    "campaign.measure_p50_ms": "ms",
    "campaign.measure_tail_ms": "ms",
    "collectors.busy_s": "s",
    "atlas.busy_s": "s",
    "traceroute.calls": "count",
    "traceroute.busy_s": "s",
    "traceroute.traces": "count",
    "repair.as_path_calls": "count",
    "repair.as_path_busy_s": "s",
    "repair.gap_index_busy_s": "s",
    "repair.segment_index_busy_s": "s",
    "repair.usable_ratio": "ratio",
    "repair.dropped": "count",
    "catchment.resolve_busy_s": "s",
    "catchment.observations": "count",
    "catchment.impute_busy_s": "s",
    "clustering.refine_calls": "count",
    "clustering.refine_busy_s": "s",
    "strategy.propose_calls": "count",
    "strategy.propose_busy_s": "s",
    "strategy.propose_p50_ms": "ms",
    "strategy.converged_busy_s": "s",
    "controller.select_busy_s": "s",
    "controller.stop_busy_s": "s",
    "localization.solve_calls": "count",
    "localization.build_busy_s": "s",
    "localization.nnls_busy_s": "s",
    "localization.rows": "count",
    "localization.cols": "count",
    "attributor.calls": "count",
    "attributor.busy_s": "s",
    "ingest.offered_batches": "count",
    "ingest.dropped_batches": "count",
    "ingest.max_queue_depth": "count",
    "traffic.link_volumes_busy_s": "s",
    "trace.setup_s": "s",
    "trace.run_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}

#: Span names behind each layer's ``<layer>.share``: the layer's busy
#: time as a fraction of the traced child's set-up plus run.  Shares are
#: ratios of times taken in one process, so a machine running slower
#: for a while moves them less than it moves seconds.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "engine": ("engine.simulate",),
    "bgp": ("bgp.simulate",),
    "campaign": ("campaign.measure",),
    "collectors": ("collectors.observe",),
    "atlas": ("atlas.all_traceroutes",),
    "traceroute": ("traceroute.measure",),
    "repair": ("repair.as_path", "repair.gap_index", "repair.segment_index"),
    "catchment": ("catchment.resolve", "catchment.impute"),
    "clustering": ("clustering.refine",),
    "strategy": ("strategy.propose", "strategy.converged"),
    "controller": ("controller.select", "controller.stop"),
    "localization": ("localization.solve",),
    "attributor": ("attributor.attribution",),
    "traffic": ("traffic.link_volumes",),
}
PER_LAYER_UNITS.update({f"{layer}.share": "fraction" for layer in LAYER_SPANS})

#: Layers (and the phase timer) that some workload never enters.
_PARTIAL = {
    "phase", "campaign", "collectors", "atlas", "traceroute", "repair",
    "catchment", "strategy", "controller", "attributor", "traffic",
}

#: The per-layer metrics BENCHMARK.json lists, in report order.  A time
#: of a layer that some workload never calls would read exactly 0 on
#: every run of that workload, so such layers are listed through their
#: counts and their ``.share`` only; every metric is still printed and
#: written with ``--out``.
LISTED_LAYER_METRICS: Tuple[str, ...] = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit not in ("s", "ms") or name.split(".")[0] not in _PARTIAL
)

#: Per-layer metrics where a larger value is the better one; for every
#: other metric less time or less work is better.
HIGHER_IS_BETTER = frozenset(
    {
        "engine.cache_hit_ratio",
        "engine.warm_starts",
        "engine.passes_saved",
        "repair.usable_ratio",
    }
)


def layer_metrics(
    recorder: SpanRecorder,
    phases: Dict[str, float],
    engine: Dict[str, float],
    ingest: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``.

    ``trace.overhead_frac`` needs the untraced repeats, so the parent
    process adds it.  ``engine`` and ``ingest`` are the program's own
    counters (``EngineStats``, ``IngestStats``) read after the run.
    """
    idx = SpanIndex(recorder.spans)
    counts = recorder.counts
    as_path_calls = idx.calls("repair.as_path")
    requested = engine.get("configs_requested", 0)
    metrics = {
        f"phase.{name}_s": phases.get(name, 0.0)
        for name in ("schedule", "simulate", "measure", "cluster", "attribute", "premeasure")
    }
    metrics.update(
        {
            "engine.busy_s": idx.busy("engine.simulate"),
            "engine.configs_simulated": engine.get("configs_simulated", 0),
            "engine.cache_hit_ratio": (
                engine.get("cache_hits", 0) / requested if requested else 0.0
            ),
            "engine.warm_starts": engine.get("warm_starts", 0),
            "engine.passes_saved": engine.get("passes_saved", 0),
            "bgp.calls": idx.calls("bgp.simulate"),
            "bgp.busy_s": idx.busy("bgp.simulate"),
            "bgp.simulate_p50_ms": idx.p50_ms("bgp.simulate"),
            "bgp.simulate_tail_ms": idx.tail_ms("bgp.simulate"),
            "bgp.passes": counts["bgp.passes"],
            "campaign.calls": idx.calls("campaign.measure"),
            "campaign.busy_s": idx.busy("campaign.measure"),
            "campaign.self_s": idx.self_time("campaign.measure"),
            "campaign.measure_p50_ms": idx.p50_ms("campaign.measure"),
            "campaign.measure_tail_ms": idx.tail_ms("campaign.measure"),
            "collectors.busy_s": idx.busy("collectors.observe"),
            "atlas.busy_s": idx.busy("atlas.all_traceroutes"),
            "traceroute.calls": idx.calls("traceroute.measure"),
            "traceroute.busy_s": idx.busy("traceroute.measure"),
            "traceroute.traces": counts["traceroute.traces"],
            "repair.as_path_calls": as_path_calls,
            "repair.as_path_busy_s": idx.busy("repair.as_path"),
            "repair.gap_index_busy_s": idx.busy("repair.gap_index"),
            "repair.segment_index_busy_s": idx.busy("repair.segment_index"),
            "repair.usable_ratio": (
                1.0 - counts["repair.dropped"] / as_path_calls
                if as_path_calls
                else 0.0
            ),
            "repair.dropped": counts["repair.dropped"],
            "catchment.resolve_busy_s": idx.busy("catchment.resolve"),
            "catchment.observations": counts["catchment.observations"],
            "catchment.impute_busy_s": idx.busy("catchment.impute"),
            "clustering.refine_calls": idx.calls("clustering.refine"),
            "clustering.refine_busy_s": idx.busy("clustering.refine"),
            "strategy.propose_calls": idx.calls("strategy.propose"),
            "strategy.propose_busy_s": idx.busy("strategy.propose"),
            "strategy.propose_p50_ms": idx.p50_ms("strategy.propose"),
            "strategy.converged_busy_s": idx.busy("strategy.converged"),
            "controller.select_busy_s": idx.busy("controller.select"),
            "controller.stop_busy_s": idx.busy("controller.stop"),
            "localization.solve_calls": idx.calls("localization.solve"),
            "localization.build_busy_s": (
                idx.busy("localization.solve") - idx.busy("localization.nnls")
            ),
            "localization.nnls_busy_s": idx.busy("localization.nnls"),
            "localization.rows": counts["localization.rows"],
            "localization.cols": counts["localization.cols"],
            "attributor.calls": idx.calls("attributor.attribution"),
            "attributor.busy_s": idx.busy("attributor.attribution"),
            "ingest.offered_batches": ingest.get("offered_batches", 0),
            "ingest.dropped_batches": ingest.get("dropped_batches", 0),
            "ingest.max_queue_depth": ingest.get("max_queue_depth", 0),
            "traffic.link_volumes_busy_s": idx.busy("traffic.link_volumes"),
            "trace.setup_s": idx.busy("bench.setup"),
            "trace.run_s": idx.busy("bench.run"),
            "trace.spans": len(recorder.spans),
        }
    )
    total = metrics["trace.setup_s"] + metrics["trace.run_s"]
    for layer, names in LAYER_SPANS.items():
        busy = sum(idx.busy(name) for name in names)
        metrics[f"{layer}.share"] = busy / total if total else 0.0
    return metrics
