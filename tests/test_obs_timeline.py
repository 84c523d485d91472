"""Timeline forensics tests: merge, order, filter, digest, serve (ISSUE 10).

The timeline is the post-mortem view: trace spans, bus events, flight
bundles, and checkpoint documents merged into one deterministic sequence
aligned on simulated minutes.  Its digest is a replay invariant, so most
tests here assert *exact* ordering and byte-stable digests.
"""

import json
import time
import urllib.request

import pytest

from repro.cli import _RunSession, build_parser, main
from repro.faults.resilience import content_checksum
from repro.obs import (
    EventBus,
    FlightRecorder,
    Logbook,
    Observability,
    ObsServer,
    Timeline,
    TimelineEntry,
    Tracer,
    build_timeline,
    timeline_from_obs,
)
from repro.obs.timeline import (
    entries_from_bus,
    entries_from_checkpoint_dir,
    entries_from_flight_payload,
    entry_from_bus_event,
)

from tests.test_obs_server import _get


def write_checkpoint(directory, name="live.json", clock=60.0, version=3,
                     generation=0, damaged=False):
    """A checksummed checkpoint document like the live layer writes."""
    path = str(directory / name)
    if generation:
        path = f"{path}.{generation}"
    if damaged:
        text = "{ not json"
    else:
        payload = {"clock": clock, "version": version}
        text = json.dumps(
            {
                "checksum": content_checksum(
                    json.dumps(payload, indent=2, sort_keys=True)
                ),
                "payload": payload,
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def make_flight_dir(tmp_path, events=(), context=None, name="live"):
    """A directory holding one real flight bundle over ``events``."""
    bus = EventBus()
    recorder = FlightRecorder(
        name=name, directory=str(tmp_path), context=dict(context or {})
    ).attach(bus=bus)
    for kind, payload in events:
        bus.publish(kind, **payload)
    recorder.dump("kill")
    recorder.detach()
    return str(tmp_path)


class TestOrdering:
    def test_unaligned_rows_sort_before_minute_zero(self):
        timeline = Timeline(
            [
                TimelineEntry(minute=0.0, seq=0, source="bus", kind="window"),
                TimelineEntry(minute=None, seq=0, source="trace", kind="span"),
            ]
        )
        assert [entry.source for entry in timeline] == ["trace", "bus"]

    def test_unsequenced_rows_land_after_sequenced_in_their_minute(self):
        timeline = Timeline(
            [
                TimelineEntry(
                    minute=120.0, seq=None, source="flight", kind="dump"
                ),
                TimelineEntry(minute=120.0, seq=7, source="bus", kind="churn"),
                TimelineEntry(minute=60.0, seq=9, source="bus", kind="window"),
            ]
        )
        assert [entry.kind for entry in timeline] == [
            "window", "churn", "dump"
        ]

    def test_construction_order_is_irrelevant(self):
        entries = [
            TimelineEntry(minute=float(minute), seq=minute, source="bus",
                          kind="window")
            for minute in range(5)
        ]
        assert (
            Timeline(entries).digest()
            == Timeline(reversed(entries)).digest()
        )


class TestDigest:
    def test_digest_is_stable_and_content_sensitive(self):
        entry = TimelineEntry(
            minute=1.0, seq=0, source="bus", kind="window",
            detail={"window_index": 0},
        )
        assert Timeline([entry]).digest() == Timeline([entry]).digest()
        changed = TimelineEntry(
            minute=1.0, seq=0, source="bus", kind="window",
            detail={"window_index": 1},
        )
        assert Timeline([entry]).digest() != Timeline([changed]).digest()

    def test_as_dict_carries_count_and_digest(self):
        timeline = Timeline(
            [TimelineEntry(minute=None, seq=None, source="flight",
                           kind="dump")]
        )
        payload = timeline.as_dict()
        assert payload["count"] == 1
        assert payload["digest"] == timeline.digest()
        assert payload["entries"][0]["source"] == "flight"

    def test_render_shows_totals_and_digest_prefix(self):
        timeline = Timeline(
            [
                TimelineEntry(minute=float(minute), seq=minute, source="bus",
                              kind="window", label=f"window {minute}")
                for minute in range(4)
            ]
        )
        rendered = timeline.render(limit=2)
        assert "timeline: 4 entries (showing last 2)" in rendered
        assert timeline.digest()[:16] in rendered
        assert "window 3" in rendered and "window 0" not in rendered


class TestFiltering:
    ENTRIES = [
        TimelineEntry(minute=None, seq=0, source="trace", kind="span"),
        TimelineEntry(minute=10.0, seq=1, source="bus", kind="window"),
        TimelineEntry(minute=50.0, seq=2, source="bus", kind="window"),
    ]

    def test_since_drops_unaligned_prologue(self):
        kept = Timeline(self.ENTRIES).filtered(since=0.0)
        assert [entry.minute for entry in kept] == [10.0, 50.0]
        assert len(Timeline(self.ENTRIES).filtered(since=20.0)) == 1


class TestBusEntries:
    def test_entry_strips_measured_and_lifts_identity(self):
        entry = entry_from_bus_event(
            {
                "seq": 4, "kind": "window", "clock_minutes": 90.0,
                "window_index": 3, "queue_depth": 1,
                "duration_seconds": 0.5,
            }
        )
        assert entry.minute == 90.0
        assert entry.seq == 4
        assert entry.kind == "window"
        assert entry.label == "window 3 (queue 1)"
        assert "duration_seconds" not in entry.detail
        assert "seq" not in entry.detail and "kind" not in entry.detail

    def test_untagged_event_is_unaligned(self):
        entry = entry_from_bus_event({"seq": 0, "kind": "phase", "name": "x"})
        assert entry.minute is None
        assert entry.label == "x"


class TestFlightEntries:
    def payload(self):
        return {
            "version": 2,
            "flight": "live",
            "reason": "kill",
            "ordinal": 2,
            "context": {"seed": 3, "clock_minutes": 120.0},
            "entries_seen": 3,
            "entries": [
                {"n": 0, "kind": "bus",
                 "event": {"seq": 9, "kind": "window", "window_index": 1}},
                {"n": 1, "kind": "bus",
                 "event": dict(seq=10, kind="log", level="warning",
                               msg="run killed", event="kill")},
                {"n": 2, "kind": "bus",
                 "event": dict(seq=11, kind="fault",
                               fault_kind="worker_crash", count=1)},
            ],
        }

    def test_dump_summary_plus_ring_rows(self):
        entries = entries_from_flight_payload(self.payload())
        dump = entries[0]
        assert dump.kind == "dump" and dump.source == "flight"
        assert dump.minute == 120.0 and dump.seq is None
        assert dump.label == "kill #2 (3 entries)"
        # Ring-captured bus events (log records and faults included)
        # re-enter as bus rows with their original sequence numbers.
        bus_row, log_row, fault_row = entries[1:]
        assert bus_row.source == "bus" and bus_row.seq == 9
        assert (log_row.source, log_row.kind, log_row.seq) == ("bus", "log", 10)
        assert log_row.label == "[warning] run killed"
        assert fault_row.label == "worker_crash x1"

    def test_version_1_ring_entries_become_generic_rows(self):
        """Bundles written before spans, logs and faults rode the bus
        still load: their non-bus ring entries become flight rows."""
        log_entry = {"level": "warning", "msg": "run killed",
                     "event": "kill", "span": "", "fields": {}}
        span_entry = {"span_id": "ab12", "parent_id": "", "name": "live",
                      "attrs": {}}
        payload = dict(
            self.payload(),
            version=1,
            entries_seen=5,
            entries=[
                {"n": 0, "kind": "bus",
                 "event": {"seq": 9, "kind": "window", "window_index": 1}},
                dict(log_entry, n=1, kind="log"),
                dict(span_entry, n=2, kind="span"),
                {"n": 3, "kind": "fault", "fault": "worker_crash", "count": 1},
                {"n": 4, "kind": "metrics", "delta": {"x_total": 1.0}},
            ],
        )
        entries = entries_from_flight_payload(payload)
        assert [(e.source, e.kind) for e in entries] == [
            ("flight", "dump"), ("bus", "window"), ("flight", "log"),
            ("flight", "span"), ("flight", "fault"), ("flight", "metrics"),
        ]
        log_row, span_row, fault_row = entries[2:5]
        assert log_row.detail == log_entry
        assert span_row.detail == span_entry
        assert fault_row.detail == {"fault": "worker_crash", "count": 1}
        for row in entries[2:]:
            assert (row.minute, row.seq) == (120.0, None)
        assert len(Timeline(entries).digest()) == 64

    def test_merge_dedupes_span_rows_by_span_id(self, tmp_path):
        obs = Observability.for_run("track")
        obs.arm_flight("track", directory=str(tmp_path))
        with obs.tracer.span("simulate"):
            pass
        obs.tracer.finish()
        obs.flight.dump("crash")
        obs.flight.detach()
        trace_path = obs.tracer.write_jsonl(str(tmp_path / "trace.jsonl"))
        timeline = build_timeline(
            trace_path=trace_path,
            flight_dir=str(tmp_path),
            bus_events=obs.bus.history(),
        )
        span_ids = [e.detail["span_id"] for e in timeline if e.kind == "span"]
        assert sorted(span_ids) == sorted(
            span.span_id for span in obs.tracer.finished
        )

    def test_merge_dedupes_flight_bus_rows_against_live_history(self):
        live = [{"seq": 9, "kind": "window", "window_index": 1}]
        timeline = Timeline(
            entries_from_bus(live)
            + entries_from_flight_payload(self.payload())
        )
        # Both copies survive a bare Timeline; the dedup lives in the
        # merge builders.
        assert sum(1 for e in timeline if e.source == "bus" and e.seq == 9) == 2

        from repro.obs.timeline import _merge

        merged = _merge(
            [entries_from_bus(live), entries_from_flight_payload(self.payload())]
        )
        assert sum(1 for e in merged if e.source == "bus" and e.seq == 9) == 1

    def test_damaged_bundle_becomes_damaged_row(self, tmp_path):
        with open(tmp_path / "flight-run-crash-000.json", "w") as handle:
            handle.write("{ torn")
        timeline = build_timeline(flight_dir=str(tmp_path))
        (entry,) = timeline.entries
        assert entry.source == "flight" and entry.kind == "damaged"
        assert "flight-run-crash-000.json" in entry.label


class TestCheckpointEntries:
    def test_checkpoint_rows_carry_clock_and_generation(self, tmp_path):
        write_checkpoint(tmp_path, clock=60.0)
        write_checkpoint(tmp_path, clock=30.0, generation=1)
        entries = entries_from_checkpoint_dir(str(tmp_path))
        assert len(entries) == 2
        by_generation = {e.detail["generation"]: e for e in entries}
        assert by_generation[0].minute == 60.0
        assert by_generation[1].minute == 30.0
        assert by_generation[0].detail["file"] == "live.json"
        assert by_generation[1].detail["file"] == "live.json.1"
        assert by_generation[0].label == "live.json generation 0, schema v3"

    def test_every_checkpoint_name_is_read_and_labelled(self, tmp_path):
        write_checkpoint(tmp_path, name="a.json", clock=20.0)
        write_checkpoint(tmp_path, name="b.json", clock=40.0)
        labels = [e.label for e in entries_from_checkpoint_dir(str(tmp_path))]
        assert labels == [
            "a.json generation 0, schema v3",
            "b.json generation 0, schema v3",
        ]

    def test_damaged_checkpoint_becomes_damaged_row(self, tmp_path):
        write_checkpoint(tmp_path, damaged=True)
        (entry,) = entries_from_checkpoint_dir(str(tmp_path))
        assert entry.kind == "damaged"
        assert entry.label == "live.json generation 0: unreadable"

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "config.json").write_text('{"not": "a checkpoint"}')
        make_flight_dir(tmp_path)  # a flight bundle has no clock
        assert entries_from_checkpoint_dir(str(tmp_path)) == []


class TestBuildTimeline:
    def test_merges_every_source(self, tmp_path):
        tracer = Tracer("track")
        with tracer.span("simulate"):
            pass
        trace_path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(trace_path)
        flight_dir = make_flight_dir(
            tmp_path / "flight",
            events=[("window", {"clock_minutes": 30.0, "window_index": 0})],
            context={"seed": 3, "clock_minutes": 45.0},
        )
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        write_checkpoint(ckpt_dir, clock=60.0)
        timeline = build_timeline(
            trace_path=trace_path,
            flight_dir=flight_dir,
            checkpoint_dir=str(ckpt_dir),
        )
        sources = [entry.source for entry in timeline]
        assert sources.count("trace") == 2  # simulate + root span
        assert "bus" in sources  # via the flight bundle's ring
        assert "flight" in sources and "checkpoint" in sources
        # Minute-aligned rows come after the unaligned trace prologue.
        minutes = [entry.minute for entry in timeline]
        assert minutes == sorted(
            minutes, key=lambda m: -1.0 if m is None else m
        )

    def test_missing_sources_contribute_nothing(self, tmp_path):
        timeline = build_timeline(
            trace_path=str(tmp_path / "absent.jsonl"),
            flight_dir=str(tmp_path / "absent"),
            checkpoint_dir="",
        )
        assert len(timeline) == 0

    def test_offline_rebuild_matches_live_view(self, tmp_path):
        """build_timeline over artifacts == timeline_from_obs digest."""
        obs = Observability.for_run("track")
        with obs.tracer.span("simulate"):
            pass
        obs.tracer.finish()
        obs.bus.publish("window", window_index=0, duration_seconds=0.5)
        live = timeline_from_obs(obs)
        trace_path = str(tmp_path / "trace.jsonl")
        obs.tracer.write_jsonl(trace_path)
        offline = build_timeline(
            trace_path=trace_path, bus_events=obs.bus.history()
        )
        assert offline.digest() == live.digest()


class TestTimelineCli:
    def test_no_sources_is_usage_error(self, capsys):
        assert main(["timeline"]) == 2
        assert "at least one source" in capsys.readouterr().err

    def test_renders_flight_dir(self, tmp_path, capsys):
        flight_dir = make_flight_dir(
            tmp_path,
            events=[("window", {"clock_minutes": 30.0, "window_index": 0})],
            context={"seed": 3, "clock_minutes": 45.0},
        )
        assert main(["timeline", "--flight-dir", flight_dir]) == 0
        out = capsys.readouterr().out
        expected = build_timeline(flight_dir=flight_dir)
        assert f"timeline: {len(expected)} entries" in out
        assert expected.digest()[:16] in out

    def test_json_output_matches_library(self, tmp_path, capsys):
        flight_dir = make_flight_dir(
            tmp_path, events=[("window", {"window_index": 0})]
        )
        assert main(["timeline", "--flight-dir", flight_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == build_timeline(flight_dir=flight_dir).as_dict()

    def test_filters_apply(self, tmp_path, capsys):
        flight_dir = make_flight_dir(
            tmp_path,
            events=[
                ("window", {"window_index": 0, "clock_minutes": 10.0}),
                ("window", {"window_index": 1, "clock_minutes": 50.0}),
            ],
        )
        assert main(
            ["timeline", "--flight-dir", flight_dir,
             "--since", "40", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"]
        assert all(e["minute"] >= 40 for e in payload["entries"])

    def test_reads_live_checkpoints(self, tmp_path, capsys):
        """``live --checkpoint`` output is a timeline source: every
        periodic checkpoint and its rotated generation become rows."""
        path = str(tmp_path / "live.json")
        assert main(
            ["--seed", "3", "live", "--sources", "8", "--max-configs", "3",
             "--quiet", "--checkpoint", path, "--checkpoint-every", "3"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["timeline", "--checkpoint-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        files = sorted(
            e["detail"]["file"]
            for e in payload["entries"]
            if e["kind"] == "checkpoint"
        )
        assert files == ["live.json", "live.json.1"]


class TestTimelineEndpoint:
    def test_serves_merged_view_with_filters(self, tmp_path):
        obs = Observability.for_run("serve")
        obs.bus.publish("window", clock_minutes=10.0, window_index=0)
        obs.bus.publish("window", clock_minutes=50.0, window_index=1)
        flight_dir = make_flight_dir(
            tmp_path, context={"seed": 3, "clock_minutes": 20.0}
        )
        server = ObsServer(obs=obs, flight_dir=flight_dir, port=0).start()
        try:
            status, body = _get(server.url + "/timeline")
            assert status == 200
            payload = json.loads(body)
            assert payload["count"] == len(payload["entries"]) > 2
            assert {e["source"] for e in payload["entries"]} >= {
                "bus", "flight"
            }
            status, body = _get(server.url + "/timeline?since=40")
            assert status == 200
            entries = json.loads(body)["entries"]
            assert entries and all(e["minute"] >= 40 for e in entries)
        finally:
            server.stop()
            obs.bus.close()

    def test_malformed_since_is_400(self):
        bus = EventBus()
        server = ObsServer(bus=bus).start()
        try:
            status, body = _get(server.url + "/timeline?since=abc")
        finally:
            server.stop()
            bus.close()
        assert status == 400
        assert json.loads(body) == {
            "error": "since must be a number, got 'abc'"
        }

    def test_404_when_nothing_armed(self):
        server = ObsServer().start()
        try:
            status, body = _get(server.url + "/timeline")
        finally:
            server.stop()
        assert status == 404
        assert "no timeline sources" in json.loads(body)["error"]

    def test_live_serve_reads_the_checkpoint_directory(self, tmp_path):
        """``live --serve``'s ``/timeline`` merges the checkpoints that
        ``--checkpoint`` writes."""
        write_checkpoint(tmp_path, clock=60.0)
        args = build_parser().parse_args(
            ["live", "--serve", "0", "--checkpoint", str(tmp_path / "live.json")]
        )
        with _RunSession(args, "live") as session:
            status, body = _get(session.server.url + "/timeline")
        assert status == 200
        (row,) = [
            e for e in json.loads(body)["entries"] if e["source"] == "checkpoint"
        ]
        assert row["minute"] == 60.0

    def test_timeline_route_listed(self):
        assert "/timeline" in ObsServer.ROUTES

    def test_explicit_source_wins(self):
        canned = Timeline(
            [TimelineEntry(minute=None, seq=None, source="flight",
                           kind="dump", label="canned")]
        )
        server = ObsServer(timeline_source=lambda: canned).start()
        try:
            status, body = _get(server.url + "/timeline")
        finally:
            server.stop()
        assert status == 200
        assert json.loads(body)["entries"][0]["label"] == "canned"


class TestSseKeepAlive:
    def test_idle_bus_emits_keepalive_frames(self):
        """A silent bus must still produce bytes (ISSUE 10 satellite):
        comment frames let clients tell a quiet run from a dead one."""
        bus = EventBus()
        server = ObsServer(bus=bus, keepalive_seconds=0.3).start()
        seen = b""
        try:
            response = urllib.request.urlopen(
                server.url + "/events?replay=0", timeout=10
            )
            deadline = time.monotonic() + 8.0
            while b": keep-alive" not in seen:
                if time.monotonic() > deadline:  # pragma: no cover
                    break
                seen += response.readline()
            response.close()
        finally:
            server.stop()
            bus.close()
        assert b": keep-alive" in seen

    def test_events_still_delivered_between_keepalives(self):
        bus = EventBus()
        server = ObsServer(bus=bus, keepalive_seconds=0.2).start()
        frames = b""
        try:
            response = urllib.request.urlopen(
                server.url + "/events?replay=0", timeout=10
            )
            deadline = time.monotonic() + 8.0
            # The first keep-alive frame proves the subscription is live;
            # only then can a replay=0 stream see a fresh publish.
            while b": keep-alive" not in frames:
                if time.monotonic() > deadline:  # pragma: no cover
                    break
                frames += response.readline()
            bus.publish("window", window_index=7)
            while b"window_index" not in frames:
                if time.monotonic() > deadline:  # pragma: no cover
                    break
                frames += response.readline()
            response.close()
        finally:
            server.stop()
            bus.close()
        assert b'"window_index": 7' in frames
