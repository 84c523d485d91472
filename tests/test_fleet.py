"""Tests for repro.fleet: specs, streams, scheduler, shards, runtime."""

import asyncio
import io
import json
import os

import pytest

from repro.errors import FleetError
from repro.fleet import (
    CRASH,
    DONE,
    DRAIN,
    EVICT,
    EVICTED,
    LAUNCH,
    PENDING,
    AttackShard,
    FleetEvent,
    FleetRuntime,
    FleetScheduler,
    FleetSpec,
    TaggedBus,
    TaggedRegistry,
    derive_seed,
    derive_tenant_seed,
    iter_stream,
    launch_event,
    merge_streams,
    scripted_stream,
    shard_observability,
)
from repro.faults import ROUTE_CHURN, FaultInjector, FaultPlan, FaultSpec
from repro.obs import (
    EventBus,
    FlightRecorder,
    Logbook,
    MetricsRegistry,
    Observability,
)
from repro.topology.generator import TopologyParams

#: Small enough to keep per-tenant testbeds cheap, large enough for the
#: pipeline's vantage/probe selection to succeed.
SMALL_PARAMS = dict(
    num_links=5,
    num_vantages=12,
    num_probes=40,
    topology_params=TopologyParams(
        num_tier1=4, num_transit=24, num_stub=90, seed=1
    ),
)


def small_spec(**overrides) -> FleetSpec:
    base = dict(
        seed=3,
        tenants=2,
        attacks_per_tenant=2,
        max_configs=3,
        num_sources=6,
        **SMALL_PARAMS,
    )
    base.update(overrides)
    return FleetSpec(**base)


class TestFleetSpec:
    def test_derived_seeds_are_stable_and_distinct(self):
        a = derive_seed(7, "tenant-00", "198.18.0.0/29")
        assert a == derive_seed(7, "tenant-00", "198.18.0.0/29")
        assert a != derive_seed(7, "tenant-00", "198.18.0.8/29")
        assert a != derive_seed(7, "tenant-01", "198.18.0.0/29")
        assert a != derive_seed(8, "tenant-00", "198.18.0.0/29")
        assert derive_tenant_seed(7, "tenant-00") != derive_tenant_seed(
            7, "tenant-01"
        )

    def test_growing_the_fleet_leaves_existing_shards_untouched(self):
        small = small_spec(tenants=2, attacks_per_tenant=1)
        grown = small_spec(tenants=3, attacks_per_tenant=2)
        small_scenarios = {a.key: a.scenario for a in small.attacks()}
        grown_scenarios = {a.key: a.scenario for a in grown.attacks()}
        for key, scenario in small_scenarios.items():
            assert grown_scenarios[key] == scenario

    def test_attacks_interleave_tenants_and_stagger_launches(self):
        spec = small_spec(launch_stagger_minutes=30.0)
        attacks = spec.attacks()
        assert [a.tenant for a in attacks] == [
            "tenant-00", "tenant-01", "tenant-00", "tenant-01",
        ]
        assert [a.launch_minute for a in attacks] == [0.0, 30.0, 60.0, 90.0]
        assert len({a.key for a in attacks}) == 4

    def test_tenant_testbeds_differ(self):
        spec = small_spec()
        tb0 = spec.tenant_testbed("tenant-00")
        tb1 = spec.tenant_testbed("tenant-01")
        assert tb0.seed != tb1.seed
        assert tb0.topology_params.seed == tb0.seed

    def test_quota_weights_default_to_one(self):
        spec = small_spec(quotas=(("tenant-00", 2.5),))
        weights = spec.quota_weights()
        assert weights == {"tenant-00": 2.5, "tenant-01": 1.0}

    def test_validation(self):
        with pytest.raises(FleetError):
            small_spec(tenants=0)
        with pytest.raises(FleetError):
            small_spec(attacks_per_tenant=0)
        with pytest.raises(FleetError):
            small_spec(distribution="bogus")
        with pytest.raises(FleetError):
            small_spec(max_active=-1)
        with pytest.raises(FleetError):
            small_spec(quotas=(("tenant-00", 0.0),))


class TestFleetStream:
    def test_event_validation(self):
        with pytest.raises(FleetError):
            FleetEvent(minute=0.0, action="explode", tenant="t", prefix="p")
        with pytest.raises(FleetError):
            FleetEvent(minute=-1.0, action=CRASH, tenant="t", prefix="p")
        with pytest.raises(FleetError):
            FleetEvent(minute=0.0, action=LAUNCH)  # no attack payload
        with pytest.raises(FleetError):
            FleetEvent(minute=0.0, action=DRAIN, tenant="t")  # no prefix

    def test_merge_is_deterministic_and_sorted(self):
        spec = small_spec(launch_stagger_minutes=10.0)
        launches = [launch_event(a) for a in spec.attacks()]
        controls = [
            FleetEvent(minute=15.0, action=DRAIN, tenant="tenant-00",
                       prefix="198.18.0.0/29"),
            FleetEvent(minute=5.0, action=CRASH, tenant="tenant-01",
                       prefix="198.18.1.0/29"),
        ]
        merged = merge_streams(launches, controls)
        assert merged == merge_streams(launches, controls)
        minutes = [event.minute for event in merged]
        assert minutes == sorted(minutes)
        assert merged == scripted_stream(spec, controls)

    def test_iter_stream_rejects_unsorted(self):
        spec = small_spec()
        events = [launch_event(a) for a in spec.attacks()]
        bad = [
            FleetEvent(minute=10.0, action=DRAIN, tenant="t", prefix="p"),
            FleetEvent(minute=5.0, action=DRAIN, tenant="t", prefix="p"),
        ]
        assert list(iter_stream(events)) == events
        with pytest.raises(FleetError):
            list(iter_stream(bad))


class TestFleetScheduler:
    def test_weighted_fair_share(self):
        sched = FleetScheduler(quotas={"a": 2.0, "b": 1.0})
        sched.register(("a", "p"), "a")
        sched.register(("b", "p"), "b")
        runnable = [("a", "p"), ("b", "p")]
        picks = []
        for _ in range(30):
            key = sched.next_key(runnable)
            picks.append(key[0])
            sched.record(key)
        # Tenant a (weight 2) gets twice the dispatch rate of b.
        assert picks.count("a") == 20
        assert picks.count("b") == 10

    def test_no_shard_starves_within_a_tenant(self):
        sched = FleetScheduler()
        keys = [("t", f"prefix-{i}") for i in range(4)]
        for key in keys:
            sched.register(key, "t")
        picks = []
        for _ in range(40):
            key = sched.next_key(keys)
            picks.append(key)
            sched.record(key)
        # Strict round robin: every shard appears once per 4 dispatches.
        for start in range(0, 40, 4):
            assert set(picks[start:start + 4]) == set(keys)

    def test_admission_order_follows_fair_share(self):
        sched = FleetScheduler(quotas={"a": 1.0, "b": 1.0}, max_active=1)
        sched.register(("a", "p1"), "a")
        sched.register(("b", "p1"), "b")
        sched.register(("a", "p2"), "a")
        # Charge tenant a some work; b should be admitted first now.
        sched.record(("a", "p1"))
        order = sched.admission_order([("a", "p2"), ("b", "p1")])
        assert order[0] == ("b", "p1")
        assert sched.can_admit(0)
        assert not sched.can_admit(1)

    def test_unknown_keys_are_errors(self):
        sched = FleetScheduler()
        assert sched.next_key([("ghost", "p")]) is None
        with pytest.raises(FleetError):
            sched.record(("ghost", "p"))
        with pytest.raises(FleetError):
            FleetScheduler(max_active=-1)
        with pytest.raises(FleetError):
            FleetScheduler(quotas={"a": 0.0})

    def test_snapshot_is_json_safe(self):
        import json

        sched = FleetScheduler(quotas={"a": 2.0})
        sched.register(("a", "p"), "a")
        sched.record(("a", "p"))
        snapshot = sched.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["dispatches"] == 1
        assert snapshot["debt"]["a"] == 0.5


class TestTaggedViews:
    def test_tagged_registry_merges_labels(self):
        registry = MetricsRegistry()
        tagged = TaggedRegistry(registry, tenant="t0", attack="t0/p")
        tagged.counter("hits_total", help="h").inc(2)
        tagged.gauge("depth", labels={"queue": "ingest"}).set(3)
        text = registry.render_prometheus()
        assert 'hits_total{attack="t0/p",tenant="t0"} 2' in text
        assert 'tenant="t0"' in text and 'queue="ingest"' in text

    def test_payload_labels_win_on_collision(self):
        registry = MetricsRegistry()
        tagged = TaggedRegistry(registry, tenant="outer")
        tagged.counter("c_total", labels={"tenant": "inner"}).inc()
        assert 'tenant="inner"' in registry.render_prometheus()

    def test_tagged_bus_injects_fields(self):
        bus = EventBus()
        tagged = TaggedBus(bus, tenant="t0", attack="t0/p")
        tagged.publish("window", window_index=4)
        tagged.publish("window", tenant="override")
        history = bus.history()
        assert history[0]["tenant"] == "t0"
        assert history[0]["attack"] == "t0/p"
        assert history[0]["window_index"] == 4
        assert history[1]["tenant"] == "override"
        bus.close()

    @staticmethod
    def _shard_logbook(parent, bus=None, **tags):
        """A shard's logbook: ``parent``'s sink, publishing through a
        tagged view of ``bus`` (what ``shard_observability`` builds)."""
        bus = bus if bus is not None else EventBus()
        return parent.with_bus(TaggedBus(bus, **tags))

    def test_tagged_logbook_keeps_human_mode_byte_identical(self):
        plain_stream, tagged_stream = io.StringIO(), io.StringIO()
        plain = Logbook(stream=plain_stream)
        tagged = shard_observability(
            Observability(
                bus=EventBus(), logbook=Logbook(stream=tagged_stream)
            ),
            "t0",
            "t0/p",
        ).logbook
        plain.info("window 4 done", event="window", window_index=4)
        tagged.info("window 4 done", event="window", window_index=4)
        assert tagged_stream.getvalue() == plain_stream.getvalue()
        assert tagged_stream.getvalue() == "window 4 done\n"

    def test_tagged_logbook_stamps_structured_fields(self):
        stream, bus = io.StringIO(), EventBus()
        parent = Logbook(stream=stream, json_mode=True, bus=bus)
        tagged = self._shard_logbook(parent, bus, tenant="t0", attack="t0/p")
        tagged.warning("shard killed", event="shard_kill", minute=120)
        line = json.loads(stream.getvalue())
        assert line["tenant"] == "t0"
        assert line["attack"] == "t0/p"
        assert line["event"] == "shard_kill"
        assert line["minute"] == 120
        # The published event (what the flight recorder sees) is tagged too.
        assert bus.history()[-1] == dict(line, seq=0, kind="log")

    def test_tagged_logbook_explicit_fields_win(self):
        bus = EventBus()
        tagged = self._shard_logbook(
            Logbook(stream=io.StringIO()), bus, tenant="outer"
        )
        tagged.error("boom", tenant="inner")
        assert bus.history()[-1]["tenant"] == "inner"

    def test_tagged_logbook_shares_parent_state(self):
        stream, bus = io.StringIO(), EventBus()
        parent = Logbook(stream=stream, json_mode=True, level="debug")
        tagged = self._shard_logbook(parent, bus, tenant="t0")
        seen = []
        bus.attach(lambda event: seen.append(event["msg"]))
        tagged.debug("quiet")
        assert tagged.json_mode is True and tagged.level == "debug"
        assert seen == ["quiet"]
        assert json.loads(stream.getvalue())["tenant"] == "t0"

    def test_shard_observability_of_bare_parent(self):
        bare = shard_observability(None, "t0", "t0/p")
        assert bare.registry is None and bare.bus is None
        empty = shard_observability(Observability(), "t0", "t0/p")
        assert empty.registry is None and empty.bus is None
        armed = shard_observability(
            Observability(
                registry=MetricsRegistry(),
                bus=EventBus(),
                logbook=Logbook(stream=io.StringIO()),
            ),
            "t0",
            "t0/p",
        )
        assert isinstance(armed.registry, TaggedRegistry)
        assert isinstance(armed.bus, TaggedBus)
        assert armed.logbook.bus is armed.bus
        # Span/profiler identities would collide across shards.
        assert armed.tracer is None and armed.profiler is None
        armed.bus._bus.close()

    def test_shard_log_and_fault_land_in_own_flight_ring(self):
        """Per-shard recorders filter the shared bus by tags, so a
        shard's log record and its injector's fault reach its own ring
        and not a neighbour's."""
        parent = Observability(
            bus=EventBus(), logbook=Logbook(stream=io.StringIO())
        )
        shards = {
            attack: (
                shard_observability(parent, "t0", attack),
                FlightRecorder(
                    tag_filter={"tenant": "t0", "attack": attack}
                ).attach(bus=parent.bus),
            )
            for attack in ("t0/a", "t0/b")
        }
        view, _ = shards["t0/a"]
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind=ROUTE_CHURN, rate=1.0,
                                       intensity=0.5),)),
            bus=view.bus,
        )
        view.logbook.warning("shard killed", event="shard_kill")
        assert injector.extra_churn(0) == 0.5
        own = [entry["event"] for entry in shards["t0/a"][1].snapshot()]
        assert [(e["kind"], e["attack"]) for e in own] == [
            ("log", "t0/a"), ("fault", "t0/a")
        ]
        assert shards["t0/b"][1].snapshot() == []


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """One full fleet run with checkpointing: the determinism baseline."""
    checkpoint_dir = str(tmp_path_factory.mktemp("fleet-ckpt"))
    spec = small_spec(checkpoint_every=2)
    runtime = FleetRuntime(spec, checkpoint_dir=checkpoint_dir)
    report = runtime.run()
    runtime.close()
    return spec, report, checkpoint_dir


class TestAttackShard:
    def test_lifecycle_guards(self, base_run):
        spec, _, _ = base_run
        attack = spec.attacks()[0]
        shard = AttackShard(attack)
        assert shard.state == PENDING
        with pytest.raises(FleetError):
            shard.step()
        with pytest.raises(FleetError):
            shard.crash()
        with pytest.raises(FleetError):
            shard.resume(None, None)
        with pytest.raises(FleetError):
            shard.force_checkpoint()

    def test_drain_of_pending_shard_evicts(self, base_run):
        spec, _, _ = base_run
        shard = AttackShard(spec.attacks()[0])
        shard.drain()
        assert shard.state == EVICTED
        shard.drain()  # idempotent on finished shards
        assert shard.state == EVICTED

    def test_report_of_pending_shard_is_empty(self, base_run):
        spec, _, _ = base_run
        shard = AttackShard(spec.attacks()[0])
        report = shard.report()
        assert report.state == PENDING
        assert report.windows == 0
        assert report.attribution_digest == ""
        assert report.key == shard.key


class TestFleetRuntime:
    def test_all_shards_finish(self, base_run):
        _, report, _ = base_run
        assert len(report.shards) == 4
        assert all(shard.state == DONE for shard in report.shards)
        assert all(shard.windows > 0 for shard in report.shards)
        assert all(shard.attribution_digest for shard in report.shards)
        assert report.events_missed == 0

    def test_checkpoints_namespaced_per_shard(self, base_run):
        _, report, checkpoint_dir = base_run
        paths = {shard.checkpoint_path for shard in report.shards}
        assert len(paths) == 4
        for path in paths:
            assert os.path.dirname(path) == checkpoint_dir
            assert os.path.exists(path)
        assert all(shard.checkpoint_digest for shard in report.shards)

    def test_rerun_is_byte_deterministic(self, base_run, tmp_path):
        spec, report, _ = base_run
        runtime = FleetRuntime(spec, checkpoint_dir=str(tmp_path))
        again = runtime.run()
        runtime.close()
        assert again.digest == report.digest
        assert [s.as_dict() for s in again.shards] == [
            s.as_dict() for s in report.shards
        ]

    def test_async_driver_matches_serial(self, base_run, tmp_path):
        spec, report, _ = base_run
        runtime = FleetRuntime(spec, checkpoint_dir=str(tmp_path))
        from_async = asyncio.run(runtime.run_async())
        runtime.close()
        assert from_async.digest == report.digest

    def test_max_active_bounds_admissions(self):
        spec = small_spec(max_active=1)
        runtime = FleetRuntime(spec)
        peak = {"active": 0}
        original = runtime._admit

        def watched_admit():
            original()
            peak["active"] = max(peak["active"], runtime._active_count())

        runtime._admit = watched_admit
        report = runtime.run()
        runtime.close()
        assert peak["active"] == 1
        assert all(shard.state == DONE for shard in report.shards)

    def test_lifecycle_logs_carry_tenant_and_attack(self, tmp_path):
        """Fleet-mode log records are filterable by shard (ISSUE 10 S4)."""
        stream = io.StringIO()
        spec = small_spec(checkpoint_every=2)
        victim = ("tenant-00", "198.18.0.0/29")
        events = scripted_stream(
            spec,
            [FleetEvent(minute=100.0, action=CRASH,
                        tenant=victim[0], prefix=victim[1])],
        )
        runtime = FleetRuntime(
            spec,
            events=events,
            obs=Observability(
                logbook=Logbook(stream=stream, json_mode=True)
            ),
            checkpoint_dir=str(tmp_path),
        )
        try:
            runtime.run()
        finally:
            runtime.close()
        lines = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        kills = [l for l in lines if l.get("event") == "shard_kill"]
        resumes = [l for l in lines if l.get("event") == "shard_resume"]
        assert kills and resumes
        assert kills[0]["tenant"] == victim[0]
        assert kills[0]["attack"] == f"{victim[0]}/{victim[1]}"
        assert resumes[0]["tenant"] == victim[0]
        assert resumes[0]["rollback"] in (True, False)
        # The key set of a tagged --log-json line: bus stamps stay out.
        base = {"level", "msg", "event", "tenant", "attack"}
        assert set(kills[0]) == base
        assert set(resumes[0]) == base | {"rollback"}

    def test_scripted_drain_and_evict(self, base_run):
        spec, _, _ = base_run
        events = scripted_stream(
            spec,
            [
                FleetEvent(minute=100.0, action=DRAIN, tenant="tenant-00",
                           prefix="198.18.0.0/29"),
                FleetEvent(minute=100.0, action=EVICT, tenant="tenant-00",
                           prefix="198.18.0.8/29"),
            ],
        )
        runtime = FleetRuntime(spec, events=events)
        report = runtime.run()
        runtime.close()
        by_key = {shard.key: shard for shard in report.shards}
        drained = by_key[("tenant-00", "198.18.0.0/29")]
        assert drained.state == DONE
        assert drained.stop_reason == "drained by fleet operator"
        assert 0 < drained.windows < 12
        assert by_key[("tenant-00", "198.18.0.8/29")].state == EVICTED
        untouched = by_key[("tenant-01", "198.18.1.0/29")]
        assert untouched.state == DONE
        assert untouched.stop_reason == "schedule exhausted"

    def test_event_on_unknown_shard_is_missed_not_fatal(self, base_run):
        spec, _, _ = base_run
        events = scripted_stream(
            spec,
            [FleetEvent(minute=1.0, action=EVICT, tenant="ghost",
                        prefix="10.0.0.0/29")],
        )
        runtime = FleetRuntime(spec, events=events)
        report = runtime.run()
        runtime.close()
        assert report.events_missed == 1
        assert len(report.shards) == 4

    def test_duplicate_launch_is_missed(self, base_run):
        spec, _, _ = base_run
        attacks = spec.attacks()
        events = merge_streams(
            [launch_event(a) for a in attacks],
            [launch_event(attacks[0])],
        )
        runtime = FleetRuntime(spec, events=events)
        report = runtime.run()
        runtime.close()
        assert report.events_missed == 1
        assert len(report.shards) == 4

    def test_tenant_engines_are_shared_within_a_tenant(self):
        spec = small_spec(tenants=1, attacks_per_tenant=2)
        runtime = FleetRuntime(spec)
        runtime.run()
        assert len(runtime._engines) == 1
        engine = runtime._engines["tenant-00"]
        # Both shards premeasured the same schedule through one engine:
        # the second admission is pure cache hits.
        assert engine.stats.cache_hits >= spec.max_configs
        runtime.close()

    def test_tenants_summary_shape(self, base_run):
        import json

        spec, _, _ = base_run
        runtime = FleetRuntime(spec)
        report = runtime.run()
        summary = runtime.tenants_summary()
        runtime.close()
        assert json.loads(json.dumps(summary)) == summary
        assert sorted(summary["tenants"]) == ["tenant-00", "tenant-01"]
        entry = summary["tenants"]["tenant-00"]
        assert entry["windows"] == sum(
            s.windows for s in report.shards if s.tenant == "tenant-00"
        )
        assert entry["states"] == {"done": 2}
        assert entry["slo"]["ready"] is True
        assert entry["weight"] == 1.0

    def test_per_tenant_watchdogs_route_by_tenant_label(self):
        from repro.obs import SloRule

        obs = Observability(registry=MetricsRegistry(), bus=EventBus())
        spec = small_spec(tenants=2, attacks_per_tenant=1)
        # A rule every window breaches: any positive window duration.
        rules = (
            SloRule("window_lag_seconds", "impossibly strict", -1.0),
        )
        runtime = FleetRuntime(spec, obs=obs, slo_rules=rules)
        runtime.run()
        assert not runtime.watchdogs["tenant-00"].ready
        assert not runtime.watchdogs["tenant-01"].ready
        text = obs.registry.render_prometheus()
        assert 'repro_slo_breached_total{slo="window_lag_seconds",tenant="tenant-00"}' in text
        assert 'repro_slo_breached_total{slo="window_lag_seconds",tenant="tenant-01"}' in text
        runtime.close()
        obs.bus.close()

    def test_fleet_events_published_on_bus(self):
        obs = Observability(bus=EventBus())
        spec = small_spec(tenants=1, attacks_per_tenant=1)
        runtime = FleetRuntime(spec, obs=obs)
        runtime.run()
        runtime.close()
        actions = [
            event["action"]
            for event in obs.bus.history()
            if event["kind"] == "fleet"
        ]
        assert actions[:2] == ["spawn", "admit"]
        assert actions[-1] == "done"
        # Every shard-tagged event names its tenant.
        window_events = [
            event for event in obs.bus.history() if event["kind"] == "window"
        ]
        assert window_events
        assert all(e["tenant"] == "tenant-00" for e in window_events)
        obs.bus.close()

    def test_close_is_idempotent(self):
        runtime = FleetRuntime(small_spec(tenants=1, attacks_per_tenant=1))
        runtime.run()
        runtime.close()
        runtime.close()
