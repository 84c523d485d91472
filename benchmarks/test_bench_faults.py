"""Fault-injection overhead benchmark.

The resilience layer must be (nearly) free when no faults fire: the
injection hooks are a handful of dict lookups per configuration, so an
engine carrying an *empty* fault plan should track the bare engine to
within a few percent.  This benchmark deploys a truncated schedule three
ways — no injector, empty-plan injector, and the bundled ``mixed`` plan
at full intensity — verifies the fault-free runs are bit-identical, and
records wall times plus chaos accounting to ``BENCH_faults.json``.

The <5% fault-free overhead target is asserted loosely (25%) because CI
containers have noisy clocks; the artifact records the real number.
"""

from __future__ import annotations

import json
import os
import time

from conftest import BENCH_PARAMS, BENCH_SEED

from repro.core.engine import SimulationEngine
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.faults import BUNDLED_PLANS, FaultInjector, FaultPlan

ARTIFACT = os.path.join(os.path.dirname(__file__), "BENCH_faults.json")
NUM_CONFIGS = 60
REPEATS = 3


def _best_time(make_engine, configs):
    """Minimum wall time over REPEATS runs on fresh (cold) engines."""
    best = None
    outcomes = None
    for _ in range(REPEATS):
        engine = make_engine()
        start = time.perf_counter()
        outcomes = engine.simulate_many(configs)
        elapsed = time.perf_counter() - start
        engine.close()
        if best is None or elapsed < best:
            best = elapsed
    return outcomes, best


def test_fault_free_injection_overhead(capsys):
    testbed = build_testbed(seed=BENCH_SEED, topology_params=BENCH_PARAMS)
    configs = SpoofTracker(testbed).schedule[:NUM_CONFIGS]

    baseline, bare_time = _best_time(
        lambda: SimulationEngine(testbed.simulator),
        configs,
    )
    empty, empty_time = _best_time(
        lambda: SimulationEngine(
            testbed.simulator,
            injector=FaultInjector(FaultPlan()),
        ),
        configs,
    )

    # The empty plan must not perturb results at all.
    for a, b in zip(baseline, empty):
        assert a.routes == b.routes
        assert a.catchments == b.catchments

    overhead_pct = 100.0 * (empty_time - bare_time) / bare_time

    # One chaotic deployment for the accounting row: the engine absorbs
    # every injected crash/hang and still produces a result per config.
    chaotic_engine = SimulationEngine(
        testbed.simulator,
        injector=FaultInjector(BUNDLED_PLANS["mixed"]),
    )
    start = time.perf_counter()
    chaotic = chaotic_engine.simulate_many(configs)
    chaotic_time = time.perf_counter() - start
    chaotic_stats = chaotic_engine.stats.copy()
    faults = chaotic_engine.injector.log.total
    chaotic_engine.close()
    assert len(chaotic) == NUM_CONFIGS
    for a, b in zip(baseline, chaotic):
        assert a.routes == b.routes  # crashes retry; results never change

    record = {
        "seed": BENCH_SEED,
        "num_configs": NUM_CONFIGS,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "bare_seconds": round(bare_time, 4),
        "empty_plan_seconds": round(empty_time, 4),
        "fault_free_overhead_pct": round(overhead_pct, 2),
        "mixed_plan_seconds": round(chaotic_time, 4),
        "mixed_faults_injected": faults,
        "mixed_retries": chaotic_stats.retries,
        "mixed_faults_bypassed": chaotic_stats.faults_bypassed,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Target is <5%; assert a loose ceiling so noisy CI clocks don't flake.
    assert overhead_pct < 25.0

    with capsys.disabled():
        print()
        print(f"wrote {ARTIFACT}")
        for key, value in sorted(record.items()):
            print(f"  {key:28s}: {value}")
