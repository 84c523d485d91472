"""Flight recorder tests: bounded capture, dumps, triggers (ISSUE 10).

The recorder is the black box of the observability layer: a lock-safe
ring riding the bus as one cheap listener (spans, log records and fault
firings are bus events too), dumping an atomic checksummed bundle on
crash-like triggers.  Everything it captures must be the deterministic
projection — identical sequences must dump byte-identical bundles.
"""

import json
import os
import signal

import pytest

from repro.analysis.dashboard import Dashboard
from repro.faults import ROUTE_CHURN, FaultPlan, FaultSpec
from repro.faults.injection import FaultInjector
from repro.obs import (
    EventBus,
    FlightRecorder,
    Logbook,
    MetricsRegistry,
    Observability,
    SloWatchdog,
    Tracer,
    install_flight_signal,
    load_flight_dump,
)


class TestRing:
    def test_capacity_bounds_ring_but_not_entries_seen(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", index=index)
        snapshot = recorder.snapshot()
        assert len(snapshot) == 4
        assert recorder.entries_seen == 10
        # The *last* four survive, oldest first, with global ordinals.
        assert [entry["index"] for entry in snapshot] == [6, 7, 8, 9]
        assert [entry["n"] for entry in snapshot] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_snapshot_is_a_copy(self):
        recorder = FlightRecorder()
        recorder.record("tick")
        recorder.snapshot()[0]["kind"] = "mutated"
        assert recorder.snapshot()[0]["kind"] == "tick"


class TestListeners:
    def test_bus_capture_strips_measured_keeps_seq(self):
        bus = EventBus()
        recorder = FlightRecorder().attach(bus=bus)
        bus.publish("window", window_index=3, duration_seconds=1.25)
        (entry,) = recorder.snapshot()
        assert entry["kind"] == "bus"
        assert entry["event"]["window_index"] == 3
        assert entry["event"]["seq"] == 0
        assert "duration_seconds" not in entry["event"]

    def test_log_capture_strips_measured_fields_ignores_threshold(self):
        bus = EventBus()
        logbook = Logbook(level="error", bus=bus)
        recorder = FlightRecorder().attach(bus=bus)
        logbook.debug(
            "below threshold", event="tick", step=4, wait_seconds=0.5
        )
        (entry,) = recorder.snapshot()
        assert entry["kind"] == "bus"
        assert entry["event"] == {
            "seq": 0, "kind": "log", "level": "debug",
            "msg": "below threshold", "event": "tick", "step": 4,
        }
        assert logbook.suppressed == 1  # still dropped from rendering

    def test_span_capture_drops_duration(self):
        bus = EventBus()
        tracer = Tracer("run", bus=bus)
        recorder = FlightRecorder().attach(bus=bus)
        with tracer.span("simulate", configs=2):
            pass
        (entry,) = recorder.snapshot()
        span = entry["event"]
        assert span["kind"] == "span"
        assert span["name"] == "simulate"
        assert span["attrs"] == {"configs": 2}
        assert span["parent_id"] == tracer.root.span_id
        assert "duration_seconds" not in span

    def test_fault_capture_via_injector(self):
        bus = EventBus()
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind=ROUTE_CHURN, rate=1.0, intensity=0.5),)),
            bus=bus,
        )
        recorder = FlightRecorder().attach(bus=bus)
        assert injector.extra_churn(0) == 0.5
        (entry,) = recorder.snapshot()
        assert entry == {
            "n": 0, "kind": "bus",
            "event": {
                "seq": 0, "kind": "fault",
                "fault_kind": ROUTE_CHURN, "count": 1,
            },
        }

    def test_detach_removes_every_hook(self):
        bus = EventBus()
        logbook, tracer = Logbook(bus=bus), Tracer("run", bus=bus)
        recorder = FlightRecorder().attach(bus=bus)
        recorder.detach()
        bus.publish("window")
        logbook.info("hello")
        with tracer.span("simulate"):
            pass
        assert recorder.snapshot() == []
        assert not bus._listeners

    def test_reattach_first_detaches(self):
        bus = EventBus()
        recorder = FlightRecorder().attach(bus=bus)
        recorder.attach(bus=bus)
        bus.publish("window")
        assert len(recorder.snapshot()) == 1  # not double-captured


class TestMetricDeltas:
    def test_deltas_recorded_since_last_call(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(registry=registry)
        counter = registry.counter("repro_ticks_total")
        counter.inc(3)
        assert recorder.record_metric_deltas() == {"repro_ticks_total": 3.0}
        assert recorder.record_metric_deltas() == {}  # no movement, no entry
        counter.inc()
        assert recorder.record_metric_deltas() == {"repro_ticks_total": 1.0}
        kinds = [entry["kind"] for entry in recorder.snapshot()]
        assert kinds == ["metrics", "metrics"]

    def test_without_registry_is_noop(self):
        recorder = FlightRecorder()
        assert recorder.record_metric_deltas() == {}
        assert recorder.snapshot() == []


class TestDump:
    def test_unarmed_dump_returns_empty(self):
        recorder = FlightRecorder()
        recorder.record("tick")
        assert recorder.dump("crash") == ""
        assert recorder.dumps == []

    def test_bundle_roundtrip_and_checksum(self, tmp_path):
        recorder = FlightRecorder(
            name="live/10.0.0.0-24",
            directory=str(tmp_path),
            context={"command": "live", "seed": 7},
        )
        recorder.record("tick", index=1)
        path = recorder.dump("kill", context={"minute": 120.0})
        assert os.path.basename(path) == (
            "flight-live-10.0.0.0-24-kill-000.json"
        )
        payload = load_flight_dump(path)
        assert payload["reason"] == "kill"
        assert payload["ordinal"] == 0
        assert payload["context"] == {
            "command": "live", "seed": 7, "minute": 120.0
        }
        assert payload["entries"] == [{"n": 0, "kind": "tick", "index": 1}]
        assert payload["entries_seen"] == 1

    def test_tampered_bundle_rejected(self, tmp_path):
        recorder = FlightRecorder(name="run", directory=str(tmp_path))
        path = recorder.dump("crash")
        document = json.loads(open(path).read())
        document["payload"]["reason"] = "doctored"
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError, match="checksum"):
            load_flight_dump(path)

    def test_repeated_dumps_rotate_ordinals(self, tmp_path):
        recorder = FlightRecorder(name="run", directory=str(tmp_path))
        first = recorder.dump("kill")
        second = recorder.dump("kill")
        other = recorder.dump("slo_breach")
        assert first.endswith("kill-000.json")
        assert second.endswith("kill-001.json")
        assert other.endswith("slo_breach-000.json")
        assert recorder.dumps == [first, second, other]

    def test_new_recorder_resumes_past_on_disk_ordinals(self, tmp_path):
        """A rerun into the same directory must not overwrite earlier bundles."""
        FlightRecorder(name="run", directory=str(tmp_path)).dump("kill")
        rebuilt = FlightRecorder(name="run", directory=str(tmp_path))
        path = rebuilt.dump("kill")
        assert path.endswith("kill-001.json")
        assert len(list(tmp_path.glob("flight-*.json"))) == 2

    def test_identical_sequences_dump_identical_bytes(self, tmp_path):
        """The determinism contract: same capture -> same bundle bytes."""

        def run(directory):
            bus = EventBus()
            logbook, tracer = Logbook(bus=bus), Tracer("run", bus=bus)
            registry = MetricsRegistry()
            recorder = FlightRecorder(
                name="run",
                directory=str(directory),
                context={"seed": 11},
                registry=registry,
            ).attach(bus=bus)
            registry.counter("repro_ticks_total").inc(2)
            bus.publish("window", window_index=0, duration_seconds=0.37)
            logbook.info("window done", event="window", elapsed_seconds=0.2)
            with tracer.span("simulate"):
                pass
            return recorder.dump("crash")

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_dump_announces_on_bus_without_path(self, tmp_path):
        bus = EventBus()
        recorder = FlightRecorder(
            name="run", directory=str(tmp_path), context={"seed": 7}
        ).attach(bus=bus)
        recorder.dump("kill")
        announce = bus.history()[-1]
        assert announce["kind"] == "flight"
        assert announce["flight"] == "run"
        assert announce["reason"] == "kill"
        assert announce["ordinal"] == 0
        assert "seed" not in announce
        assert not any("path" in key for key in announce)

    def test_unarmed_dump_does_not_announce(self):
        bus = EventBus()
        recorder = FlightRecorder().attach(bus=bus)
        recorder.dump("crash")
        assert all(event["kind"] != "flight" for event in bus.history())


class TestTriggers:
    def test_slo_breach_dumps_bundle(self, tmp_path):
        watchdog = SloWatchdog()
        watchdog.flight = FlightRecorder(name="run", directory=str(tmp_path))
        assert watchdog.check("window_lag_seconds", 99.0) is False
        (path,) = watchdog.flight.dumps
        payload = load_flight_dump(path)
        assert payload["reason"] == "slo_breach"
        assert payload["context"]["slo"] == "window_lag_seconds"
        assert "99" in payload["context"]["detail"]

    def test_arm_flight_rides_the_whole_bundle(self, tmp_path):
        obs = Observability.for_run("track")
        recorder = obs.arm_flight("track", directory=str(tmp_path))
        assert obs.flight is recorder
        obs.bus.publish("window", window_index=0)
        obs.logbook.info("hello")
        with obs.tracer.span("simulate"):
            pass
        obs.registry.counter("repro_ticks_total").inc()
        path = recorder.dump("crash")
        payload = load_flight_dump(path)
        kinds = [
            entry["event"]["kind"] if entry["kind"] == "bus" else entry["kind"]
            for entry in payload["entries"]
        ]
        assert kinds == ["window", "log", "span", "metrics"]
        assert payload["version"] == 2
        assert payload["counters"]["repro_ticks_total"] == 1.0
        recorder.detach()

    @pytest.mark.skipif(
        not hasattr(signal, "SIGUSR1"), reason="needs POSIX signals"
    )
    def test_sigusr1_dumps_black_box(self, tmp_path):
        recorder = FlightRecorder(name="live", directory=str(tmp_path))
        recorder.record("tick")
        previous = install_flight_signal(recorder)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
        finally:
            signal.signal(signal.SIGUSR1, previous or signal.SIG_DFL)
        (path,) = recorder.dumps
        assert load_flight_dump(path)["reason"] == "signal"


class TestDashboardIntegration:
    def test_flight_events_surface_in_header(self):
        dash = Dashboard()
        dash.ingest(
            {"seq": 0, "kind": "flight", "flight": "live",
             "reason": "kill", "ordinal": 0}
        )
        dash.ingest(
            {"seq": 1, "kind": "flight", "flight": "live",
             "reason": "kill", "ordinal": 1}
        )
        rendered = dash.render()
        assert "flight dumps: kill×2" in rendered
        assert "last: live #1 (kill)" in rendered

    def test_no_flight_line_without_dumps(self):
        assert "flight dumps" not in Dashboard().render()
