"""Flight-recorder overhead benchmark.

The forensics promise only holds if the black box is cheap enough to
leave armed in production: the flight recorder is a lock-guarded ring
append riding the bus, which spans and log records already reach.  This benchmark runs the
armed pipeline (full ``Observability.for_run`` bundle) with and without
a flight recorder attached, verifies the reports are bit-identical, and
records wall times to ``BENCH_flight.json``.

The <5% overhead target is asserted loosely (25%) because CI containers
have noisy clocks; the artifact records the real number.
"""

from __future__ import annotations

import json
import os
import time

from conftest import BENCH_PARAMS, BENCH_SEED

from repro.core.pipeline import SpoofTracker, build_testbed
from repro.obs import Observability, load_flight_dump

ARTIFACT = os.path.join(os.path.dirname(__file__), "BENCH_flight.json")
NUM_CONFIGS = 60
REPEATS = 3


def _run_once(testbed, flight_dir=""):
    """One cold armed run; returns (report, obs, elapsed)."""
    obs = Observability.for_run("track")
    if flight_dir:
        obs.arm_flight("track", directory=flight_dir)
    tracker = SpoofTracker(testbed, obs=obs)
    start = time.perf_counter()
    report = tracker.run(max_configs=NUM_CONFIGS)
    elapsed = time.perf_counter() - start
    obs.tracer.finish()
    if obs.flight is not None:
        obs.flight.dump("bench")  # the crash path, outside the timing
        obs.flight.detach()
    return report, obs, elapsed


def _best_time(testbed, flight_dir=""):
    best = None
    report = None
    obs = None
    for _ in range(REPEATS):
        report, obs, elapsed = _run_once(testbed, flight_dir)
        if best is None or elapsed < best:
            best = elapsed
    return report, obs, best


def test_flight_overhead(capsys, tmp_path):
    testbed = build_testbed(seed=BENCH_SEED, topology_params=BENCH_PARAMS)

    armed, _, armed_time = _best_time(testbed)
    flown, flown_obs, flown_time = _best_time(
        testbed, flight_dir=str(tmp_path / "flight")
    )

    # Riding the black box must not perturb results.
    assert flown.universe == armed.universe
    assert flown.clusters == armed.clusters
    assert flown.catchment_history == armed.catchment_history

    # The recorder actually captured the run it rode.
    payload = load_flight_dump(flown_obs.flight.dumps[-1])
    assert payload["entries_seen"] > 0
    events = [e["event"] for e in payload["entries"] if e["kind"] == "bus"]
    assert events and any(event["kind"] == "span" for event in events)

    flight_pct = 100.0 * (flown_time - armed_time) / armed_time

    record = {
        "seed": BENCH_SEED,
        "num_configs": NUM_CONFIGS,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "armed_seconds": round(armed_time, 4),
        "armed_flight_seconds": round(flown_time, 4),
        "flight_overhead_pct": round(flight_pct, 2),
        "flight_entries_seen": payload["entries_seen"],
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Target is <5%; assert a loose ceiling so noisy CI clocks don't flake.
    assert flight_pct < 25.0

    with capsys.disabled():
        print()
        print(f"wrote {ARTIFACT}")
        for key, value in sorted(record.items()):
            print(f"  {key:32s}: {value}")
