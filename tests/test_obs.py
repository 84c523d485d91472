"""Tests for the observability layer (repro.obs).

The two properties the layer sells are determinism (identical counter
totals and span trees for identical seeded scenarios) and
reconciliation (the metrics dump agrees with the engine's own
accounting) — both are enforced here against real pipeline runs.
"""

import json

import pytest

from repro.core.engine import EngineStats, SimulationEngine
from repro.core.pipeline import SpoofTracker
from repro.obs import (
    MetricsRegistry,
    Observability,
    PhaseTimer,
    ProfileCapture,
    Stopwatch,
    Tracer,
    build_manifest,
    build_tree,
    load_spans,
    parse_prometheus,
    phase_durations,
    record_engine_stats,
    record_fault_log,
    span_tree_signature,
)

#: Serial oracles for ``SpoofTracker(small_testbed).run(max_configs=10)``
#: under ``Observability.for_run("track")``.  Recorded from the
#: multiprocess engine before it was removed, where one and two workers
#: produced exactly these values; the serial engine must keep them.
TRACK_SPAN_SIGNATURE = (
    "1e91c3d821cbd08843171f6ae88981aa4a11d29278eb72b7a668944e0644647e"
)
TRACK_COUNTER_TOTALS = {
    "repro_engine_cache_hits_total": 0.0,
    "repro_engine_configs_requested_total": 10.0,
    "repro_engine_configs_simulated_total": 10.0,
    "repro_engine_passes_saved_total": 3.0,
    "repro_engine_warm_starts_total": 9.0,
    "repro_pipeline_clusters_total": 28.0,
    "repro_pipeline_configs_deployed_total": 10.0,
    "repro_pipeline_degraded_steps_total": 0.0,
    "repro_pipeline_sources_total": 205.0,
}
#: Signature of :func:`stream_configs` streamed through
#: ``SimulationEngine.iter_simulate`` under ``Tracer("stream")``: the
#: stream starts with children whose warm-start parents (and
#: grandparents) are simulated on demand, then hits them in the cache.
STREAM_SPAN_SIGNATURE = (
    "1ffbaf743dfdd4e9261cdef6e5c0eec75a463d7b64897f39aa643ff44c10d7c8"
)


def stream_configs(testbed):
    """12 configurations: 4 three-link prepends, 2 poisonings, then the
    schedule's first 6 (anycast-all and locations, some already cached
    as parents)."""
    schedule = SpoofTracker(testbed).schedule
    prepends = [
        config for config in schedule
        if config.phase == "prepending" and len(config.announced) == 3
    ]
    poisons = [config for config in schedule if config.phase == "poisoning"]
    return prepends[:4] + poisons[:2] + schedule[:6]


class TestCounters:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("events_total").inc(-1)

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("drops_total", labels={"reason": "loss"}).inc(2)
        registry.counter("drops_total", labels={"reason": "filter"}).inc(1)
        totals = registry.counter_totals()
        assert totals['drops_total{reason="loss"}'] == 2
        assert totals['drops_total{reason="filter"}'] == 1

    def test_handles_are_cached(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_counter_totals_excludes_measured_data(self):
        registry = MetricsRegistry()
        registry.counter("logical_total").inc()
        registry.gauge("wall_seconds").set(1.23)
        registry.histogram("latency_seconds").observe(0.5)
        assert set(registry.counter_totals()) == {"logical_total"}


class TestGaugesAndHistograms:
    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(2)
        assert gauge.value == 5

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1]  # ≤0.1, ≤1.0, +Inf
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.05)


class TestMergeAndRender:
    def test_render_parse_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a_total", help="things").inc(3)
        registry.gauge("b_seconds").set(1.5)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP a_total things" in text
        assert "# TYPE c histogram" in text
        parsed = parse_prometheus(text)
        assert parsed["a_total"] == 3
        assert parsed["b_seconds"] == 1.5
        assert parsed['c_bucket{le="1"}'] == 1
        assert parsed['c_bucket{le="+Inf"}'] == 1
        assert parsed["c_count"] == 1

    def test_write_files(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        prom = registry.write_prometheus(str(tmp_path / "m.prom"))
        blob = registry.write_json(str(tmp_path / "m.json"))
        assert parse_prometheus(open(prom).read())["a_total"] == 1
        assert json.load(open(blob))["counters"][0]["name"] == "a_total"

    def test_roundtrip_escapes_label_values(self):
        registry = MetricsRegistry()
        awkward = 'quote:" backslash:\\ newline:\nend'
        registry.counter("odd_total", labels={"detail": awkward}).inc(2)
        text = registry.render_prometheus()
        # The exposition text itself must stay one sample per line.
        sample_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(sample_lines) == 1
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parsed = parse_prometheus(text)
        (series,) = parsed
        assert parsed[series] == 2
        assert series == list(registry.counter_totals())[0]

    def test_roundtrip_preserves_nan_and_inf(self):
        import math

        registry = MetricsRegistry()
        registry.gauge("hot").set(float("inf"))
        registry.gauge("cold").set(float("-inf"))
        registry.gauge("undefined").set(float("nan"))
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["hot"] == float("inf")
        assert parsed["cold"] == float("-inf")
        assert math.isnan(parsed["undefined"])

class TestEngineRecording:
    def test_record_engine_stats_reconciles(self):
        stats = EngineStats(
            configs_requested=10,
            configs_simulated=7,
            cache_hits=3,
            warm_starts=5,
            passes_saved=9,
            wall_time=1.25,
        )
        registry = MetricsRegistry()
        record_engine_stats(registry, stats)
        totals = registry.counter_totals()
        assert totals["repro_engine_configs_requested_total"] == 10
        assert totals["repro_engine_configs_simulated_total"] == 7
        assert totals["repro_engine_cache_hits_total"] == 3
        assert totals["repro_engine_warm_starts_total"] == 5
        assert totals["repro_engine_passes_saved_total"] == 9
        assert registry.gauge("repro_engine_wall_seconds").value == 1.25

    def test_record_fault_log(self):
        registry = MetricsRegistry()
        record_fault_log(registry, {"crash": 2, "hang": 1})
        totals = registry.counter_totals()
        assert totals['repro_faults_injected_total{kind="crash"}'] == 2
        assert totals['repro_faults_injected_total{kind="hang"}'] == 1


class TestTracer:
    def _sample(self):
        tracer = Tracer("track")
        with tracer.span("simulate", configs=4):
            with tracer.span("batch"):
                pass
            with tracer.span("batch"):
                pass
        with tracer.span("measure"):
            pass
        tracer.finish()
        return tracer

    def test_span_ids_are_structural(self):
        a, b = self._sample(), self._sample()
        assert [s.span_id for s in a.finished] == [s.span_id for s in b.finished]
        assert span_tree_signature(a.records()) == span_tree_signature(b.records())

    def test_repeated_sites_get_distinct_ids(self):
        tracer = self._sample()
        batches = [s for s in tracer.finished if s.name == "batch"]
        assert len(batches) == 2
        assert batches[0].span_id != batches[1].span_id
        assert batches[0].parent_id == batches[1].parent_id

    def test_signature_ignores_durations(self):
        a, b = self._sample(), self._sample()
        for span in b.finished:
            span.duration_seconds += 17.0
        assert span_tree_signature(a.records()) == span_tree_signature(b.records())

    def test_signature_sees_attrs(self):
        a, b = self._sample(), self._sample()
        b.finished[0].attrs["extra"] = 1
        assert span_tree_signature(a.records()) != span_tree_signature(b.records())

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = self._sample()
        path = tracer.write_jsonl(str(tmp_path / "t.jsonl"))
        spans = load_spans(path)
        assert len(spans) == len(tracer.finished)
        tree = build_tree(spans)
        root = tree[""][0]
        assert root["name"] == "track"
        children = {span["name"] for span in tree[root["span_id"]]}
        assert children == {"simulate", "measure"}
        durations = phase_durations(spans, parent_id=root["span_id"])
        assert set(durations) == {"simulate", "measure"}

    def test_finish_is_idempotent(self, tmp_path):
        tracer = self._sample()
        tracer.finish()
        tracer.finish()
        assert sum(1 for s in tracer.finished if s.name == "track") == 1


class TestProfiling:
    def test_stopwatch_monotonic(self):
        stopwatch = Stopwatch()
        first = stopwatch.elapsed()
        second = stopwatch.elapsed()
        assert 0 <= first <= second
        stopwatch.restart()
        assert stopwatch.elapsed() < second + 1.0

    def test_phase_timer_totals_and_histogram(self):
        registry = MetricsRegistry()
        timer = PhaseTimer(registry)
        with timer.phase("simulate"):
            pass
        with timer.phase("simulate"):
            pass
        with timer.phase("measure"):
            pass
        assert timer.seconds("simulate") >= 0
        table = timer.table()
        assert "simulate" in table and "measure" in table
        histogram = registry.histogram(
            "repro_phase_seconds", labels={"phase": "simulate"}
        )
        assert histogram.count == 2

    def test_profile_capture_collects_hotspots(self):
        profiler = ProfileCapture(enabled=True)
        with profiler.capture():
            sum(range(1000))
        assert profiler.hotspots(5)
        assert "calls" in profiler.hotspot_table(5)

    def test_disabled_capture_is_noop(self):
        profiler = ProfileCapture(enabled=False)
        with profiler.capture():
            pass
        assert profiler.hotspots(5) == []


class TestManifest:
    def test_build_manifest_roundtrips(self):
        manifest = build_manifest(
            "track", seed=7, scale="small",
            config={"max_configs": 12}, fault_plan=None,
        )
        assert manifest.command == "track"
        assert manifest.seed == 7
        payload = json.loads(manifest.to_json())
        assert payload["config"]["max_configs"] == 12
        assert payload["python_version"]

    def test_manifest_is_frozen(self):
        manifest = build_manifest("track", seed=0, scale="small")
        with pytest.raises(AttributeError):
            manifest.seed = 1


class TestObservabilityBundle:
    def test_unarmed_bundle_is_noop(self):
        obs = Observability()
        with obs.span("simulate") as span:
            assert span is None
        with obs.phase("simulate") as span:
            assert span is None
        with obs.capture():
            pass

    def test_armed_bundle_traces_and_times(self):
        obs = Observability.for_run("track")
        with obs.phase("simulate", configs=3) as span:
            span.set("done", True)
        assert obs.tracer.finished[0].attrs == {"configs": 3, "done": True}
        assert obs.timer.seconds("simulate") >= 0


class TestPipelineDeterminism:
    """The layer's headline guarantees, against real pipeline runs."""

    def _run(self, testbed, run_name="track"):
        obs = Observability.for_run(run_name)
        tracker = SpoofTracker(testbed, obs=obs)
        report = tracker.run(max_configs=10)
        obs.tracer.finish()
        return report, obs

    def test_counter_totals_match_pinned_oracle(self, small_testbed):
        _, obs = self._run(small_testbed)
        assert obs.registry.counter_totals() == TRACK_COUNTER_TOTALS

    def test_span_tree_identical_across_runs_and_pinned(self, small_testbed):
        _, first = self._run(small_testbed)
        _, second = self._run(small_testbed)
        signature = span_tree_signature(first.tracer.records())
        assert signature == span_tree_signature(second.tracer.records())
        assert signature == TRACK_SPAN_SIGNATURE

    def test_stream_span_tree_matches_pinned_oracle(self, small_testbed):
        tracer = Tracer("stream")
        engine = SimulationEngine(small_testbed.simulator, tracer=tracer)
        outcomes = list(engine.iter_simulate(stream_configs(small_testbed)))
        tracer.finish()
        assert len(outcomes) == 12
        assert span_tree_signature(tracer.records()) == STREAM_SPAN_SIGNATURE
        stats = engine.stats
        assert (
            stats.configs_simulated,
            stats.cache_hits,
            stats.warm_starts,
            stats.passes_saved,
        ) == (14, 1, 11, 5)

    def test_all_five_phases_traced(self, small_testbed):
        _, obs = self._run(small_testbed)
        tree = build_tree(obs.tracer.records())
        root = tree[""][0]
        phases = [span["name"] for span in tree[root["span_id"]]]
        assert phases == sorted(phases, key=phases.index)  # sanity
        assert set(phases) == {
            "schedule", "simulate", "measure", "cluster", "attribute",
        }

    def test_each_phase_published_once_as_a_span(self, small_testbed):
        """A phase reaches the bus as its closed span and nothing else:
        no ``phase`` twin, no per-batch ``engine_batch`` event, no
        ``report`` event."""
        _, obs = self._run(small_testbed)
        history = obs.bus.history()
        root_id = obs.tracer.root.span_id
        phases = [
            event["name"] for event in history
            if event["kind"] == "span" and event["parent_id"] == root_id
        ]
        assert sorted(phases) == sorted(
            ["schedule", "simulate", "measure", "cluster", "attribute"]
        )
        kinds = {event["kind"] for event in history}
        assert not kinds & {"phase", "engine_batch", "report"}

    def test_metrics_reconcile_with_engine_stats(self, small_testbed):
        report, obs = self._run(small_testbed)
        totals = obs.registry.counter_totals()
        stats = report.engine_stats
        assert totals["repro_engine_configs_simulated_total"] == (
            stats.configs_simulated
        )
        assert totals["repro_engine_cache_hits_total"] == stats.cache_hits
        assert totals["repro_engine_warm_starts_total"] == stats.warm_starts
