#!/usr/bin/env python3
"""Racing traceback strategies, and writing your own (paper §V-C).

The paper's greedy ordering is one answer to "which configuration
should we announce next?"; `repro.strategy` makes that decision an
object with one interface.  This example:

1. races the five built-in strategies on one seeded testbed through the
   shared-engine compare harness (the measurement pass is paid once),
2. writes a custom strategy — a smallest-catchment-first heuristic —
   in a few lines and drives it through ``run_strategy`` over the same
   measured evidence, next to the built-in race.

Run:  python examples/strategy_compare.py
"""

from typing import Optional

from repro.core.configgen import ScheduleParams, generate_schedule
from repro.core.engine import SimulationEngine
from repro.core.evidence import Evidence
from repro.core.pipeline import build_testbed
from repro.strategy import (
    TracebackStrategy,
    available_strategies,
    compare_strategies,
    configs_to_convergence,
    run_strategy,
)
from repro.topology import TopologyParams

SEED = 3
MAX_CONFIGS = 10
SMALL = TopologyParams(num_tier1=6, num_transit=60, num_stub=300)


# ----------------------------------------------------------------------
# A custom strategy: deploy the configuration whose smallest catchment
# is smallest — small catchments pin down few sources very precisely.
# Subclass and implement propose(); the name labels its results.  bind() has
# already stored per-config catchment maps (restricted to the universe)
# in self.catchment_maps and the not-yet-deployed indices in
# self.remaining; observe()/converged() come from the base class.
# ----------------------------------------------------------------------
class SmallestCatchmentStrategy(TracebackStrategy):
    """Prefer configurations that isolate the fewest sources."""

    name = "smallest-catchment"

    def propose(self, state, volume_by_as=None) -> Optional[int]:
        best: Optional[int] = None
        best_key = None
        for index in self.remaining:
            catchments = [
                len(members)
                for members in self.catchment_maps[index].values()
                if members
            ]
            if not catchments:
                continue
            key = (min(catchments), index)
            if best_key is None or key < best_key:
                best, best_key = index, key
        return best


def main() -> None:
    testbed = build_testbed(seed=SEED, topology_params=SMALL)
    engine = SimulationEngine(testbed.simulator)
    try:
        # --------------------------------------------------------------
        # 1. Race the built-ins through the shared engine.
        # --------------------------------------------------------------
        print(f"[1] racing {len(available_strategies())} strategies "
              f"({', '.join(available_strategies())}):\n")
        report = compare_strategies(
            testbed, max_configs=MAX_CONFIGS, engine=engine
        )
        print(report.table())
        assert report.engine_stats is not None
        print(f"\n    shared measurement pass: {report.engine_stats.summary()}")

        winner = report.outcomes[0]
        print(
            f"    winner: {winner.strategy} — mean cluster size "
            f"{winner.final_mean_cluster_size:.2f} after "
            f"{winner.configs_to_convergence} configurations "
            f"({winner.dwell_minutes:.0f} dwell minutes)"
        )

        # --------------------------------------------------------------
        # 2. The custom strategy over the same evidence (cache hits).
        # --------------------------------------------------------------
        schedule = generate_schedule(
            testbed.origin, testbed.graph, ScheduleParams()
        )[:MAX_CONFIGS]
        evidence = Evidence.build(schedule, engine.simulate_many(schedule))
    finally:
        engine.close()
    result = run_strategy(
        SmallestCatchmentStrategy(),
        sorted(evidence.universe),
        evidence.maps,
        schedule=schedule,
    )
    print(f"\n[2] custom strategy {result.strategy!r} via run_strategy:")
    print(
        f"    deployed={len(result.order)}  "
        f"converged@={configs_to_convergence(result.curve)}  "
        f"mean={result.final_mean_size:.2f}  max={result.final_max_size}  "
        f"stop: {result.stop_reason}"
    )


if __name__ == "__main__":
    main()
