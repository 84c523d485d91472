"""Fleet runtime throughput and per-shard overhead benchmark.

The fleet multiplexes N shards through shared per-tenant engines, a
fair-share scheduler, and tagged observability views — machinery that
must stay cheap relative to the replay work itself.  This benchmark
runs an 8-shard campaign (4 tenants x 2 attacks) two ways:

* **lone**: each shard as a standalone
  :class:`~repro.live.service.LiveTracebackService`, serially, sharing
  the tenant's engine exactly like the fleet does — the same simulation
  work with zero fleet machinery;
* **fleet**: the same shards through :class:`~repro.fleet.FleetRuntime`
  (scheduler, event stream, shard lifecycle, per-tenant watchdogs).

Identical attribution digests double-check that the fleet changed
nothing but the interleaving.  ``BENCH_fleet.json`` records aggregate
throughput (windows/s across the fleet) and the per-shard overhead.
The target is <10% overhead at 8 shards; the assertion ceiling is loose
(50%) because CI containers have noisy clocks — the artifact records
the real number, and `spooftrack bench-check` gates the wall times
against history.
"""

from __future__ import annotations

import json
import os
import time

from repro.fleet import FleetRuntime, FleetSpec, attribution_digest
from repro.core.engine import SimulationEngine
from repro.live import LiveTracebackService
from repro.topology.generator import TopologyParams

ARTIFACT = os.path.join(os.path.dirname(__file__), "BENCH_fleet.json")
REPEATS = 3

FLEET_SPEC = FleetSpec(
    seed=11,
    tenants=4,
    attacks_per_tenant=2,
    max_configs=3,
    num_sources=6,
    num_links=5,
    num_vantages=12,
    num_probes=40,
    topology_params=TopologyParams(
        num_tier1=4, num_transit=24, num_stub=90, seed=1
    ),
)


def _resources():
    """Fresh (cold-cache) per-tenant testbeds and engines, untimed.

    Both paths get identical, freshly built resources per repeat so the
    measured difference is purely the fleet machinery, not cache warmth
    or topology construction.
    """
    testbeds = {
        tenant: FLEET_SPEC.tenant_testbed(tenant).build()
        for tenant in FLEET_SPEC.tenant_names()
    }
    engines = {
        tenant: SimulationEngine(testbeds[tenant].simulator)
        for tenant in FLEET_SPEC.tenant_names()
    }
    return testbeds, engines


def _lone_run(attacks):
    """Every shard as a standalone service, serially; returns
    (digest map, total windows, wall seconds)."""
    testbeds, engines = _resources()
    digests = {}
    windows = 0
    start = time.perf_counter()
    for attack in attacks:
        service = LiveTracebackService(
            scenario=attack.scenario,
            spec=attack.testbed,
            testbed=testbeds[attack.tenant],
            engine=engines[attack.tenant],
        )
        report = service.run()
        service.close()
        digests[attack.key] = attribution_digest(report)
        windows += report.run_stats.windows
    elapsed = time.perf_counter() - start
    for engine in engines.values():
        engine.close()
    return digests, windows, elapsed


def _fleet_run():
    """The same shards through the fleet runtime; returns
    (digest map, total windows, wall seconds)."""
    testbeds, engines = _resources()
    runtime = FleetRuntime(FLEET_SPEC)
    # Hand the runtime the pre-built resources it would otherwise build
    # lazily, so the timer covers the same work as the lone path.
    runtime._testbeds.update(testbeds)
    runtime._engines.update(engines)
    start = time.perf_counter()
    report = runtime.run()
    elapsed = time.perf_counter() - start
    runtime.close()
    digests = {shard.key: shard.attribution_digest for shard in report.shards}
    return digests, sum(shard.windows for shard in report.shards), elapsed


def test_fleet_overhead_and_throughput(capsys):
    attacks = FLEET_SPEC.attacks()

    lone_best = None
    for _ in range(REPEATS):
        lone_digests, lone_windows, elapsed = _lone_run(attacks)
        if lone_best is None or elapsed < lone_best:
            lone_best = elapsed

    fleet_best = None
    for _ in range(REPEATS):
        fleet_digests, fleet_windows, elapsed = _fleet_run()
        if fleet_best is None or elapsed < fleet_best:
            fleet_best = elapsed

    # The fleet must change only the interleaving, never the evidence.
    assert fleet_digests == lone_digests
    assert fleet_windows == lone_windows

    overhead_pct = 100.0 * (fleet_best - lone_best) / lone_best
    per_shard_overhead_pct = overhead_pct / len(attacks)

    record = {
        "seed": FLEET_SPEC.seed,
        "tenants": FLEET_SPEC.tenants,
        "shards": len(attacks),
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "windows_total": fleet_windows,
        "lone_seconds": round(lone_best, 4),
        "fleet_seconds": round(fleet_best, 4),
        "fleet_windows_per_second": round(fleet_windows / fleet_best, 1),
        "fleet_overhead_pct": round(overhead_pct, 2),
        "per_shard_overhead_pct": round(per_shard_overhead_pct, 3),
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Target is <10% at 8 shards; loose ceiling for noisy CI clocks.
    assert overhead_pct < 50.0

    with capsys.disabled():
        print()
        print(f"wrote {ARTIFACT}")
        for key, value in sorted(record.items()):
            print(f"  {key:26s}: {value}")
