"""Strategy-race overhead benchmark.

``spooftrack compare`` races the five built-in traceback strategies over
one seeded testbed, paying the catchment measurement pass once through
a shared :class:`~repro.core.engine.SimulationEngine` and re-running
only the (cheap) refinement arithmetic per contestant.  That design is
the whole point: a race of five strategies should cost barely more than
a lone greedy run, because the simulation work dominates and is shared.

This benchmark times the same testbed two ways:

* **lone**: one measurement pass plus a single
  :class:`~repro.strategy.GreedyStrategy` run — the §V-C baseline a user
  would run anyway;
* **race**: :func:`~repro.strategy.compare_strategies` over every
  built-in strategy, cold engine, same schedule.

``BENCH_compare.json`` records both wall times and the per-strategy
marginal cost.  The assertion ceiling is deliberately loose (the race
may cost up to 8x the lone run — it runs 5 strategies plus ranking)
because CI clocks are noisy; `spooftrack bench-check` gates the wall
times against recorded history.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.configgen import ScheduleParams, generate_schedule
from repro.core.engine import SimulationEngine
from repro.core.pipeline import build_testbed
from repro.core.evidence import Evidence
from repro.strategy import (
    GreedyStrategy,
    available_strategies,
    compare_strategies,
    run_strategy,
)

ARTIFACT = os.path.join(os.path.dirname(__file__), "BENCH_compare.json")
REPEATS = 3
SEED = 0
MAX_CONFIGS = 12


def _lone_run():
    """Measurement pass + one greedy schedule; returns (order, seconds)."""
    testbed = build_testbed(seed=SEED)
    schedule = generate_schedule(
        testbed.origin, testbed.graph, ScheduleParams()
    )[:MAX_CONFIGS]
    engine = SimulationEngine(testbed.simulator)
    start = time.perf_counter()
    try:
        evidence = Evidence.build(schedule, engine.simulate_many(schedule))
        order = run_strategy(
            GreedyStrategy(),
            sorted(evidence.universe),
            evidence.maps,
            check_converged=False,
        ).order
    finally:
        engine.close()
    return order, time.perf_counter() - start


def _race_run():
    """Full compare race, cold engine; returns (report, seconds)."""
    testbed = build_testbed(seed=SEED)
    start = time.perf_counter()
    report = compare_strategies(testbed, max_configs=MAX_CONFIGS)
    return report, time.perf_counter() - start


def test_compare_overhead(capsys):
    lone_best = None
    for _ in range(REPEATS):
        lone_order, elapsed = _lone_run()
        if lone_best is None or elapsed < lone_best:
            lone_best = elapsed

    race_best = None
    for _ in range(REPEATS):
        report, elapsed = _race_run()
        if race_best is None or elapsed < race_best:
            race_best = elapsed

    # The race must contain the lone run: its greedy contestant deploys
    # the exact order the standalone scheduler produced.
    by_name = {outcome.strategy: outcome for outcome in report.outcomes}
    assert by_name["greedy"].order == lone_order
    assert len(report.outcomes) == len(available_strategies())

    contestants = len(report.outcomes)
    marginal = (race_best - lone_best) / max(contestants - 1, 1)

    record = {
        "seed": SEED,
        "max_configs": MAX_CONFIGS,
        "contestants": contestants,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "universe_size": report.universe_size,
        "configs_simulated": report.engine_stats.configs_simulated,
        "lone_seconds": round(lone_best, 4),
        "race_seconds": round(race_best, 4),
        "marginal_seconds_per_strategy": round(marginal, 4),
        "race_over_lone_ratio": round(race_best / lone_best, 3),
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Shared measurement pass: racing N strategies must cost far less
    # than N lone runs.  Loose ceiling for noisy CI clocks.
    assert race_best < 8.0 * max(lone_best, 0.01)

    with capsys.disabled():
        print()
        print(f"wrote {ARTIFACT}")
        for key, value in sorted(record.items()):
            print(f"  {key:30s}: {value}")
