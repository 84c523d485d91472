"""Equivalence suite: the indexed core is bit-identical to the reference sweep.

The indexed frontier core (:mod:`repro.bgp.indexed`) is the simulator's
only propagation core.  It earns that by reproducing the reference
Gauss-Seidel sweep (``tests/bgp_reference.py``) *exactly* — same routes
(field for field), same catchments, same pass counts, same
decision-change totals, same convergence flags — over randomized
topologies, announcement configurations, warm starts, and the engine.
These are seeded property-style tests: each trial draws a fresh
configuration shape (announced subsets, prepending, poisoning, no-export
communities) and core and oracle must agree on everything observable.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.bgp.indexed import CompiledTopology
from repro.bgp.policy import PolicyModel
from repro.bgp.simulator import RoutingSimulator
from repro.core.engine import SimulationEngine
from repro.core.pipeline import build_testbed
from repro.errors import SimulationError
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.peering import attach_origin

from bgp_reference import ReferenceSweep


def _fresh_topology(seed):
    """A private small topology (attach_origin mutates, so no fixtures)."""
    return generate_topology(
        TopologyParams(num_tier1=4, num_transit=30, num_stub=100, seed=seed)
    )


def assert_outcomes_identical(a, b):
    """Field-for-field equality of two routing outcomes."""
    assert a.routes == b.routes
    assert a.catchments == b.catchments
    assert a.passes == b.passes
    assert a.decision_changes == b.decision_changes
    assert a.converged == b.converged
    assert a.origin_asn == b.origin_asn
    assert a.warm_started == b.warm_started


def _random_config(rng, graph, origin):
    """Draw a random configuration exercising every ⟨A;P;Q⟩ dimension."""
    links = origin.link_ids
    k = rng.randint(1, len(links))
    announced = frozenset(rng.sample(links, k))
    prepended = frozenset(rng.sample(sorted(announced), rng.randint(0, k)))
    poisoned = {}
    if rng.random() < 0.4:
        victims = rng.sample(sorted(graph.ases - {origin.asn}), rng.randint(1, 2))
        poisoned = {rng.choice(sorted(announced)): frozenset(victims)}
    no_export = {}
    if rng.random() < 0.3:
        link = rng.choice(sorted(announced))
        neighbors = sorted(
            set(graph.neighbors(origin.provider_of(link))) - {origin.asn}
        )
        if neighbors:
            no_export = {
                link: frozenset(rng.sample(neighbors, min(2, len(neighbors))))
            }
    return AnnouncementConfig(
        announced=announced,
        prepended=prepended,
        poisoned=poisoned,
        no_export=no_export,
        prepend_count=rng.choice([1, 2, 4]),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_indexed_equals_legacy_on_random_configs(seed):
    """Cold and warm-started fixpoints agree bit-for-bit per trial."""
    testbed = build_testbed(
        seed=seed,
        topology_params=TopologyParams(
            num_tier1=4, num_transit=25, num_stub=90, seed=seed
        ),
        num_links=5,
        num_vantages=6,
        num_probes=10,
    )
    graph, origin, policy = (
        testbed.topology.graph,
        testbed.origin,
        testbed.policy,
    )
    indexed = RoutingSimulator(graph, origin, policy)
    reference = ReferenceSweep.of(indexed)

    rng = random.Random(seed * 101 + 5)
    previous = None
    for _ in range(8):
        config = _random_config(rng, graph, origin)
        outcome_i = indexed.simulate(config)
        outcome_r = reference.simulate(config)
        assert_outcomes_identical(outcome_i, outcome_r)
        if previous is not None:
            warm_i = indexed.simulate(config, warm_start=previous.routes)
            warm_r = reference.simulate(config, warm_start=previous.routes)
            assert_outcomes_identical(warm_i, warm_r)
            # Warm or cold, the fixpoint is the same stable state.
            assert warm_i.routes == outcome_i.routes
            assert warm_i.catchments == outcome_i.catchments
        previous = outcome_i


def test_indexed_equals_legacy_with_clean_policies(mini):
    """Exact agreement on the hand-built topology with noiseless policy."""
    policy = PolicyModel(
        mini.graph,
        seed=0,
        policy_noise=0.0,
        loop_prevention_disabled_fraction=0.0,
    )
    indexed = RoutingSimulator(mini.graph, mini.origin, policy)
    reference = ReferenceSweep.of(indexed)
    for config in (
        anycast_all(mini.origin.link_ids),
        AnnouncementConfig(announced=frozenset({"l1"})),
        AnnouncementConfig(
            announced=frozenset({"l1", "l2"}), prepended=frozenset({"l2"})
        ),
    ):
        assert_outcomes_identical(
            indexed.simulate(config), reference.simulate(config)
        )


def test_engine_outcomes_identical_across_cores():
    """The engine (cache, warm starts) produces the same outcomes whether
    its simulator propagates through the indexed core or the oracle."""
    topology = _fresh_topology(seed=3)
    origin = attach_origin(topology, num_links=4, seed=3)
    policy = PolicyModel(topology.graph, seed=3)
    rng = random.Random(99)
    configs = [_random_config(rng, topology.graph, origin) for _ in range(12)]

    indexed = RoutingSimulator(topology.graph, origin, policy)
    oracle = RoutingSimulator(topology.graph, origin, policy)
    oracle.simulate = ReferenceSweep.of(oracle).simulate
    got = SimulationEngine(indexed).simulate_many(configs)
    want = SimulationEngine(oracle).simulate_many(configs)
    assert any(outcome.warm_started for outcome in want)
    for a, b in zip(got, want):
        assert_outcomes_identical(a, b)


class PickyPolicy(PolicyModel):
    """Overrides accepts() — import logic the compiled core cannot see."""

    def accepts(self, holder, transit_path, origin_path, learned_from):
        return super().accepts(holder, transit_path, origin_path, learned_from)


class ChattyExports(PolicyModel):
    """Overrides exports() — likewise uncompilable."""

    def exports(self, learned_from, export_to):
        return super().exports(learned_from, export_to)


def test_overridden_policy_rejected():
    """A policy overriding accepts()/exports() must not silently run with
    base semantics: the simulator refuses it when built.  The oracle
    calls accepts() itself, so the same policy still converges there —
    and, since it only delegates, matches the indexed base run."""
    topology = _fresh_topology(seed=17)
    origin = attach_origin(topology, num_links=3, seed=17)
    for policy_class in (PickyPolicy, ChattyExports):
        with pytest.raises(SimulationError, match="accepts/exports"):
            RoutingSimulator(
                topology.graph, origin, policy_class(topology.graph, seed=1)
            )
    base = RoutingSimulator(
        topology.graph, origin, PolicyModel(topology.graph, seed=1)
    )
    picky = ReferenceSweep.of(base, policy=PickyPolicy(topology.graph, seed=1))
    config = anycast_all(origin.link_ids)
    outcome = picky.simulate(config)
    assert outcome.converged
    assert_outcomes_identical(outcome, base.simulate(config))


def test_scalar_policy_overrides_are_compiled():
    """Overriding scalar hooks (salt_for etc.) is accepted — and the
    compiled answers still match the reference sweep exactly."""

    class DriftedSalt(PolicyModel):
        def salt_for(self, asn):
            return super().salt_for(asn) + 13

    topology = _fresh_topology(seed=23)
    origin = attach_origin(topology, num_links=3, seed=23)
    policy = DriftedSalt(topology.graph, seed=2)
    indexed = RoutingSimulator(topology.graph, origin, policy)
    config = anycast_all(origin.link_ids)
    assert_outcomes_identical(
        indexed.simulate(config), ReferenceSweep.of(indexed).simulate(config)
    )


@pytest.mark.parametrize("core", ["indexed", "legacy"])
def test_warm_start_bit_identical_across_prepend_deltas(core):
    """Regression guard for the stale-tail warm-start bug.

    Warm-starting a prepend-only delta from the un-prepended fixpoint
    used to seed routes whose AS-paths no longer matched what the new
    configuration announces; under deviant policies that steered the
    Gauss-Seidel iteration into a *different* stable state than a cold
    start reaches.  The stale-tail seed filter discards those seeds, so
    warm and cold runs must now agree bit-for-bit — in the indexed core
    and in the oracle alike.
    """
    for seed in range(6):
        testbed = build_testbed(
            seed=seed,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=25, num_stub=80, seed=seed
            ),
            num_links=5,
            num_vantages=5,
            num_probes=10,
        )
        simulator = RoutingSimulator(
            testbed.topology.graph, testbed.origin, testbed.policy
        )
        if core == "legacy":
            simulator = ReferenceSweep.of(simulator)
        links = testbed.origin.link_ids
        base = AnnouncementConfig(announced=frozenset(links))
        base_outcome = simulator.simulate(base)
        rng = random.Random(seed + 7)
        for _ in range(4):
            delta = AnnouncementConfig(
                announced=base.announced,
                prepended=frozenset(
                    rng.sample(links, rng.randint(1, len(links)))
                ),
                prepend_count=rng.choice([1, 2, 4]),
            )
            cold = simulator.simulate(delta)
            warm = simulator.simulate(delta, warm_start=base_outcome.routes)
            assert warm.warm_started and not cold.warm_started
            assert warm.routes == cold.routes
            assert warm.catchments == cold.catchments
            # Warm starts save work but never change the answer.
            assert warm.passes <= cold.passes


def test_compiled_topology_direct_use():
    """CompiledTopology.propagate is usable standalone."""
    topology = _fresh_topology(seed=31)
    origin = attach_origin(topology, num_links=3, seed=31)
    policy = PolicyModel(topology.graph, seed=4)
    simulator = RoutingSimulator(topology.graph, origin, policy)
    compiled = CompiledTopology.compile(
        topology.graph, origin, policy, simulator._visit_order
    )
    config = anycast_all(origin.link_ids)
    outcome = compiled.propagate(
        config, None, simulator.max_passes, False, topology.graph.ases
    )
    assert_outcomes_identical(
        outcome, ReferenceSweep.of(simulator).simulate(config)
    )
