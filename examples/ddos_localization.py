#!/usr/bin/env python3
"""Attack-time localization of an amplification DDoS (paper §V-C, §VIII).

The intro scenario: an amplification attack is hitting a victim through
reflectors; the origin network hosts an AmpPot-style honeypot inside a
dedicated prefix, so every query it receives is spoofed attack traffic.

Workflow (the paper's envisioned runtime use):

1. *Before the attack*: deploy the announcement schedule once and measure
   every configuration's catchments (slow — done ahead of time).
2. *During the attack*: reuse the pre-measured catchments and deploy
   configurations in greedy order — each configuration only needs to be
   active long enough to read honeypot counters — then attribute volumes.
3. Compare against a random deployment order (Figure 8's baseline) and
   against the volume-aware greedy variant (§VIII future work).

Run:  python examples/ddos_localization.py
"""

import random

from repro.core.clustering import ClusterState
from repro.core.evidence import Evidence
from repro.core.localization import SpoofLocalizer
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.core.scheduler import percentile_curve, random_schedule_curves
from repro.spoof import AmplificationHoneypot, SpoofedTrafficGenerator, pareto_placement
from repro.strategy import (
    GreedyStrategy,
    VolumeGreedyStrategy,
    run_strategy,
    weighted_cost,
)
from repro.topology import TopologyParams


def main() -> None:
    testbed = build_testbed(
        seed=7,
        topology_params=TopologyParams(
            num_tier1=6, num_transit=80, num_stub=400, seed=7
        ),
    )
    tracker = SpoofTracker.from_testbed(testbed)
    print(f"testbed: {len(testbed.graph)} ASes, schedule: {len(tracker.schedule)} configs")

    # ------------------------------------------------------------------
    # Phase 1 (pre-attack): measure catchments for the whole schedule.
    # ------------------------------------------------------------------
    print("\n[1] Pre-measuring catchments for every configuration...")
    outcomes = [testbed.simulator.simulate(c) for c in tracker.schedule]
    evidence = Evidence.build(tracker.schedule, outcomes)
    universe, history = evidence.universe, evidence.maps
    print(f"    {len(history)} catchment maps over {len(universe)} ASes")

    # ------------------------------------------------------------------
    # Phase 2 (attack): honeypot sees spoofed queries; schedule greedily.
    # ------------------------------------------------------------------
    print("\n[2] Attack begins: Pareto-distributed botnet, honeypot observing...")
    rng = random.Random(99)
    placement = pareto_placement(sorted(testbed.topology.stubs), 40, rng)
    honeypot = AmplificationHoneypot(service="ntp")

    greedy = run_strategy(
        GreedyStrategy(), sorted(universe), history,
        max_steps=12, check_converged=False,
    )
    order, curve = greedy.order, greedy.curve
    print(f"    greedy deployment order (first 12): {order}")

    volume_history = []
    deployed_history = []
    for config_index in order:
        outcome = outcomes[config_index]
        generator = SpoofedTrafficGenerator(
            placement, outcome.catchments, rng=random.Random(config_index)
        )
        report = honeypot.observe(generator.packets(2000))
        volumes = {link: 0.0 for link in outcome.catchments}
        volumes.update(report.bytes_by_link)
        volume_history.append(volumes)
        deployed_history.append(history[config_index])

    state = ClusterState(universe)
    for catchments in deployed_history:
        state.refine_with_catchments(catchments)
    localizer = SpoofLocalizer(state.clusters(), deployed_history)
    result = localizer.localize(volume_history)

    suspects = result.suspect_ases(volume_fraction=0.9)
    true_sources = placement.spoofing_ases
    found = len(true_sources & suspects)
    print(
        f"    after {len(order)} configurations: {len(suspects)} suspect ASes "
        f"capture {found}/{len(true_sources)} true sources"
    )

    # ------------------------------------------------------------------
    # Phase 3: how much did greedy scheduling buy us? (Figure 8)
    # ------------------------------------------------------------------
    print("\n[3] Greedy vs random deployment (mean cluster size by step):")
    random_curves = random_schedule_curves(
        sorted(universe), history, num_sequences=30, seed=1, max_steps=12
    )
    median = percentile_curve(random_curves, 50.0)
    for step in (0, 4, 9, 11):
        print(
            f"    step {step + 1:>2}: greedy {curve[step]:6.2f}  "
            f"random median {median[step]:6.2f}"
        )

    print("\n[4] Volume-aware greedy (splits busy clusters first, §VIII):")
    volume_by_as = placement.volume_by_as(1.0)
    aware = run_strategy(
        VolumeGreedyStrategy(volume_by_as=volume_by_as),
        sorted(universe),
        history,
        max_steps=8,
        curve_metric=lambda state: weighted_cost(state, volume_by_as),
        check_converged=False,
    )
    print(f"    order: {aware.order}")
    print(f"    weighted cost curve: {[round(v, 3) for v in aware.curve]}")


if __name__ == "__main__":
    main()
