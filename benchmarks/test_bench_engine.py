"""Simulation-engine benchmark: cold vs warm-started vs cached, large graph.

Deploys a truncated announcement schedule through the
:class:`~repro.core.engine.SimulationEngine` three ways — cold with warm
starts, warm-start disabled, and a fully cached replay — checks that
every variant produces bit-identical routes, and records wall times plus
cache/warm-start rates to ``BENCH_engine.json`` next to this file.

A second, optional benchmark (``REPRO_BENCH_LARGE=1``) synthesizes a
CAIDA-sized (~75k AS) topology, round-trips it through the as-rel
serialization, and times one fixpoint of the indexed simulation core
over it — the scale the paper's traceback loop must sustain to race
real announcement schedules.  It also times the reference Gauss-Seidel
sweep (``tests/bgp_reference.py``, the test suite's oracle) on the same
fixpoint and asserts the two agree bit for bit, and times the engine's
subset warm start seeded with the parent's route table (dirty-frontier
pass 1) against the same seed as a plain dict (full pass 1), asserting
that both agree with the reference sweep seeded with that dict.  Each
large-graph time is the median of :data:`LARGE_REPEATS` runs; the cold
fixpoint runs on a fresh simulator each time, so every run pays the
compile.

Both tests merge into the artifact read-modify-write style, so a smoke
run that skips the large benchmark preserves the committed large-graph
numbers (and vice versa).  The artifact records ``cpu_count`` as
context for the timings.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import sys
import time

import pytest
from conftest import BENCH_PARAMS, BENCH_SEED

# The reference sweep is test-only code; appended, so it cannot shadow
# this directory's conftest.
sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
from bgp_reference import ReferenceSweep  # noqa: E402

from repro.core.engine import SimulationEngine
from repro.core.pipeline import SpoofTracker, build_testbed

ARTIFACT = os.path.join(os.path.dirname(__file__), "BENCH_engine.json")
NUM_CONFIGS = 60

LARGE_ENV_VAR = "REPRO_BENCH_LARGE"
LARGE_SEED = 7
LARGE_NUM_TIER1 = 10
LARGE_NUM_TRANSIT = 2500
LARGE_NUM_STUB = 72500
LARGE_REPEATS = 3


def _start_clock():
    """Collect garbage, then read the clock: a full collection landing
    inside a timed region would otherwise decide its number."""
    gc.collect()
    return time.perf_counter()


def _timed(engine, configs):
    start = _start_clock()
    outcomes = engine.simulate_many(configs)
    return outcomes, time.perf_counter() - start


def _median_timed(run, repeats=LARGE_REPEATS):
    """The last result of ``repeats`` calls of ``run`` and their median
    wall time: one run of a multi-second step spreads too widely to gate."""
    times = []
    for _ in range(repeats):
        start = _start_clock()
        result = run()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def _assert_same_fixpoint(a, b):
    assert a.routes == b.routes
    assert a.passes == b.passes
    assert a.decision_changes == b.decision_changes
    assert a.converged == b.converged


def _merge_artifact(update):
    """Read-modify-write ``BENCH_engine.json`` so partial runs keep keys."""
    record = {}
    if os.path.exists(ARTIFACT):
        with open(ARTIFACT, encoding="utf-8") as handle:
            record = json.load(handle)
    record.update(update)
    record["cpu_count"] = os.cpu_count()
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return record


def test_engine_cold_warm_cached(capsys):
    testbed = build_testbed(seed=BENCH_SEED, topology_params=BENCH_PARAMS)
    configs = SpoofTracker(testbed).schedule[:NUM_CONFIGS]

    serial = SimulationEngine(testbed.simulator)
    baseline, serial_time = _timed(serial, configs)

    cold = SimulationEngine(testbed.simulator, warm_start=False)
    cold_outcomes, cold_time = _timed(cold, configs)

    cached, cached_time = _timed(serial, configs)

    # Every variant is bit-identical (the engine's core guarantee).
    for a, b, c in zip(baseline, cached, cold_outcomes):
        assert a.routes == b.routes == c.routes
        assert a.catchments == c.catchments

    stats = serial.stats
    assert stats.cache_hits >= NUM_CONFIGS  # the replay was free
    cache_hit_rate = stats.cache_hits / stats.configs_requested
    record = _merge_artifact(
        {
            "seed": BENCH_SEED,
            "num_configs": NUM_CONFIGS,
            "serial_cold_seconds": round(serial_time, 4),
            "serial_no_warm_start_seconds": round(cold_time, 4),
            "cached_replay_seconds": round(cached_time, 4),
            "cache_hit_rate": round(cache_hit_rate, 4),
            "warm_starts": stats.warm_starts,
            "passes_saved": stats.passes_saved,
        }
    )

    assert cached_time < serial_time  # replay must beat simulating

    with capsys.disabled():
        print()
        print(f"wrote {ARTIFACT}")
        for key, value in sorted(record.items()):
            print(f"  {key:32s}: {value}")


# ----------------------------------------------------------------------
# CAIDA-scale fixpoint
# ----------------------------------------------------------------------


def _synthesize_as_rel_lines(
    num_tier1: int, num_transit: int, num_stub: int, seed: int
):
    """Deterministic ~O(n) CAIDA-shaped as-rel synthesizer.

    The repo's :func:`~repro.topology.generator.generate_topology`
    rebuilds a full weight vector per preferential draw (quadratic in the
    AS count), which is fine at testbed scale and hopeless at 75k ASes.
    This synthesizer keeps the same macro-structure — a tier-1 peering
    clique, a preferentially attached transit tier, a stub edge — using
    Barabási-style "repeated node" sampling (each AS appears in the urn
    once per unit of degree), so a 75k-AS topology builds in a second.
    """
    rng = random.Random(seed)
    lines = []
    tier1 = [10 + i for i in range(num_tier1)]
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            lines.append(f"{a}|{b}|0")

    pairs = set()
    urn = list(tier1)  # degree-preferential urn for transit providers
    transit = [1000 + i for i in range(num_transit)]
    for asn in transit:
        providers = {rng.choice(urn) for _ in range(rng.randint(1, 3))}
        for provider in providers:
            lines.append(f"{provider}|{asn}|-1")
            pairs.add((provider, asn))
            urn.append(provider)
        urn.append(asn)

    for _ in range(num_transit // 2):  # IXP-style peering in the middle
        a, b = rng.sample(transit, 2)
        key = (min(a, b), max(a, b))
        if key in pairs or (key[1], key[0]) in pairs:
            continue
        pairs.add(key)
        lines.append(f"{key[0]}|{key[1]}|0")

    stub_urn = list(transit)  # stubs home preferentially within transit
    for asn in range(100000, 100000 + num_stub):
        count = 2 if rng.random() < 0.3 else 1
        providers = {rng.choice(stub_urn) for _ in range(count)}
        for provider in providers:
            lines.append(f"{provider}|{asn}|-1")
            stub_urn.append(provider)
    return lines, transit


def test_engine_large_graph_fixpoint(capsys):
    if not os.environ.get(LARGE_ENV_VAR):
        pytest.skip(f"set {LARGE_ENV_VAR}=1 to run the 75k-AS fixpoint bench")

    from repro.bgp.announcement import AnnouncementConfig, anycast_all
    from repro.bgp.policy import PolicyModel
    from repro.bgp.simulator import RoutingSimulator
    from repro.topology.peering import PAPER_MUXES, OriginNetwork, PeeringLink
    from repro.topology.relationships import Relationship
    from repro.topology.serialization import dumps_as_rel, loads_as_rel

    lines, transit = _synthesize_as_rel_lines(
        LARGE_NUM_TIER1, LARGE_NUM_TRANSIT, LARGE_NUM_STUB, LARGE_SEED
    )
    text = "\n".join(lines) + "\n"

    # Round-trip through the as-rel serialization: parse, re-dump, parse
    # again — the committed load time covers a full parse of ~100k links.
    graph, load_time = _median_timed(
        lambda: loads_as_rel(dumps_as_rel(loads_as_rel(text)))
    )

    # Attach a PEERING-like origin to seven providers spread across the
    # transit tier (deterministic slices, like attach_origin's spread).
    origin_asn = 47065
    providers = [transit[(i * len(transit)) // 7] for i in range(7)]
    links = []
    for (mux_name, provider_name, _), provider in zip(PAPER_MUXES, providers):
        graph.add_link(origin_asn, provider, Relationship.PROVIDER)
        links.append(
            PeeringLink(
                link_id=mux_name, provider=provider, provider_name=provider_name
            )
        )
    origin = OriginNetwork(origin_asn, links)
    policy = PolicyModel(graph, seed=LARGE_SEED)

    baseline = anycast_all(origin.link_ids)
    subset = AnnouncementConfig(
        announced=frozenset(origin.link_ids[:4]), label="subset-4"
    )

    # The cold time includes the one-off compile of a fresh simulator.
    cold_outcome, cold_time = _median_timed(
        lambda: RoutingSimulator(graph, origin, policy).simulate(baseline)
    )
    sim = RoutingSimulator(graph, origin, policy)
    parent = sim.simulate(baseline)
    _, compiled_time = _median_timed(lambda: sim.simulate(subset))

    # The engine's subset warm start: seeded with the converged parent's
    # route table, pass 1 evaluates only the dirty frontier.  A plain
    # dict of the same routes gets the full pass 1.  Both must agree
    # with the reference sweep seeded with the dict.
    warm_outcome, warm_time = _median_timed(
        lambda: sim.simulate(subset, warm_start=parent.routes)
    )
    seed_dict = dict(parent.routes)
    full_pass_outcome, warm_dict_time = _median_timed(
        lambda: sim.simulate(subset, warm_start=seed_dict)
    )
    legacy_warm = ReferenceSweep.of(sim).simulate(subset, warm_start=seed_dict)
    _assert_same_fixpoint(warm_outcome, legacy_warm)
    _assert_same_fixpoint(full_pass_outcome, legacy_warm)
    assert warm_outcome.catchments == full_pass_outcome.catchments

    # A fresh sweep each run, so each pays its one-off neighbor build.
    legacy_outcome, legacy_time = _median_timed(
        lambda: ReferenceSweep.of(sim).simulate(baseline)
    )

    assert cold_outcome.converged
    # The overwhelming majority of a connected graph must hold a route.
    assert len(cold_outcome.routes) > 0.95 * len(graph)
    # Core and reference sweep agree bit-for-bit at scale, and compiling
    # pays for itself within this single fixpoint.
    _assert_same_fixpoint(cold_outcome, legacy_outcome)
    assert cold_time < legacy_time

    record = _merge_artifact(
        {
            "large_graph_seed": LARGE_SEED,
            "large_graph_ases": len(graph),
            "large_graph_links": sum(len(graph.neighbors(a)) for a in graph.ases)
            // 2,
            "large_graph_load_roundtrip_seconds": round(load_time, 4),
            "large_graph_cold_fixpoint_seconds": round(cold_time, 4),
            "large_graph_compiled_fixpoint_seconds": round(compiled_time, 4),
            "large_graph_legacy_fixpoint_seconds": round(legacy_time, 4),
            "large_graph_warm_fixpoint_seconds": round(warm_time, 4),
            "large_graph_warm_full_pass_fixpoint_seconds": round(
                warm_dict_time, 4
            ),
            "large_graph_passes": cold_outcome.passes,
            "large_graph_routed_ases": len(cold_outcome.routes),
        }
    )

    # The acceptance bar: a CAIDA-scale fixpoint completes in seconds,
    # not minutes (generous bound so slow CI runners still pass).
    assert cold_time < 120.0

    with capsys.disabled():
        print()
        print(f"wrote {ARTIFACT}")
        for key, value in sorted(record.items()):
            if key.startswith("large_graph"):
                print(f"  {key:40s}: {value}")
