"""Equivalence suite: the indexed core is bit-identical to the legacy core.

The indexed frontier core (:mod:`repro.bgp.indexed`) earns the right to
be the default by reproducing the reference simulator *exactly* — same
routes (field for field), same catchments, same pass counts, same
decision-change totals, same convergence flags — over randomized
topologies, announcement configurations, warm starts, and engine worker
counts.  These are seeded property-style tests: each trial draws a fresh
configuration shape (announced subsets, prepending, poisoning, no-export
communities) and both cores must agree on everything observable.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.bgp.indexed import CompiledTopology, policy_is_compilable
from repro.bgp.policy import PolicyModel
from repro.bgp.simulator import RoutingSimulator
from repro.core.engine import SimulationEngine
from repro.core.pipeline import build_testbed
from repro.errors import SimulationError
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.peering import attach_origin


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
    indexed = RoutingSimulator(graph, origin, policy, core="indexed")
    legacy = RoutingSimulator(graph, origin, policy, core="legacy")
    assert indexed.effective_core == "indexed"
    assert legacy.effective_core == "legacy"

    rng = random.Random(seed * 101 + 5)
    previous = None
    for _ in range(8):
        config = _random_config(rng, graph, origin)
        outcome_i = indexed.simulate(config)
        outcome_l = legacy.simulate(config)
        assert_outcomes_identical(outcome_i, outcome_l)
        if previous is not None:
            warm_i = indexed.simulate(config, warm_start=previous.routes)
            warm_l = legacy.simulate(config, warm_start=previous.routes)
            assert_outcomes_identical(warm_i, warm_l)
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
    indexed = RoutingSimulator(mini.graph, mini.origin, policy, core="indexed")
    legacy = RoutingSimulator(mini.graph, mini.origin, policy, core="legacy")
    for config in (
        anycast_all(mini.origin.link_ids),
        AnnouncementConfig(announced=frozenset({"l1"})),
        AnnouncementConfig(
            announced=frozenset({"l1", "l2"}), prepended=frozenset({"l2"})
        ),
    ):
        assert_outcomes_identical(
            indexed.simulate(config), legacy.simulate(config)
        )


def test_engine_outcomes_identical_across_cores():
    """The engine produces the same outcomes with either core."""
    topology = _fresh_topology(seed=3)
    origin = attach_origin(topology, num_links=4, seed=3)
    policy = PolicyModel(topology.graph, seed=3)
    rng = random.Random(99)
    configs = [_random_config(rng, topology.graph, origin) for _ in range(12)]

    reference = None
    for core in ("indexed", "legacy"):
        simulator = RoutingSimulator(topology.graph, origin, policy, core=core)
        outcomes = SimulationEngine(simulator).simulate_many(configs)
        if reference is None:
            reference = outcomes
        else:
            for got, want in zip(outcomes, reference):
                assert_outcomes_identical(got, want)


def test_overridden_policy_falls_back_to_legacy():
    """A policy overriding accepts() cannot compile; the flag is honored."""

    class PickyPolicy(PolicyModel):
        def accepts(self, holder, transit_path, origin_path, learned_from):
            return super().accepts(
                holder, transit_path, origin_path, learned_from
            )

    topology = _fresh_topology(seed=17)
    origin = attach_origin(topology, num_links=3, seed=17)
    policy = PickyPolicy(topology.graph, seed=1)
    assert not policy_is_compilable(policy)
    simulator = RoutingSimulator(topology.graph, origin, policy, core="indexed")
    assert simulator.effective_core == "legacy"
    outcome = simulator.simulate(anycast_all(origin.link_ids))
    assert outcome.converged
    # And the fallback still matches an explicit-legacy run exactly.
    legacy = RoutingSimulator(topology.graph, origin, policy, core="legacy")
    assert_outcomes_identical(
        outcome, legacy.simulate(anycast_all(origin.link_ids))
    )


def test_scalar_policy_overrides_are_compiled():
    """Overriding scalar hooks (salt_for etc.) keeps the indexed core —
    and the compiled answers still match the legacy sweep exactly."""

    class DriftedSalt(PolicyModel):
        def salt_for(self, asn):
            return super().salt_for(asn) + 13

    topology = _fresh_topology(seed=23)
    origin = attach_origin(topology, num_links=3, seed=23)
    policy = DriftedSalt(topology.graph, seed=2)
    assert policy_is_compilable(policy)
    indexed = RoutingSimulator(topology.graph, origin, policy, core="indexed")
    legacy = RoutingSimulator(topology.graph, origin, policy, core="legacy")
    assert indexed.effective_core == "indexed"
    config = anycast_all(origin.link_ids)
    assert_outcomes_identical(indexed.simulate(config), legacy.simulate(config))


def test_core_env_var_and_validation(mini, monkeypatch):
    policy = PolicyModel(mini.graph, seed=0)
    monkeypatch.setenv("REPRO_SIM_CORE", "legacy")
    simulator = RoutingSimulator(mini.graph, mini.origin, policy)
    assert simulator.core == "legacy"
    monkeypatch.delenv("REPRO_SIM_CORE")
    assert RoutingSimulator(mini.graph, mini.origin, policy).core == "indexed"
    with pytest.raises(SimulationError):
        RoutingSimulator(mini.graph, mini.origin, policy, core="vectorized")


@pytest.mark.parametrize("core", ["indexed", "legacy"])
def test_warm_start_bit_identical_across_prepend_deltas(core):
    """Regression guard for the stale-tail warm-start bug.

    Warm-starting a prepend-only delta from the un-prepended fixpoint
    used to seed routes whose AS-paths no longer matched what the new
    configuration announces; under deviant policies that steered the
    Gauss-Seidel iteration into a *different* stable state than a cold
    start reaches.  The stale-tail seed filter discards those seeds, so
    warm and cold runs must now agree bit-for-bit.
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
            testbed.topology.graph, testbed.origin, testbed.policy, core=core
        )
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
    simulator = RoutingSimulator(topology.graph, origin, policy, core="legacy")
    compiled = CompiledTopology.compile(
        topology.graph, origin, policy, simulator._visit_order
    )
    config = anycast_all(origin.link_ids)
    outcome = compiled.propagate(
        config, None, simulator.max_passes, False, topology.graph.ases
    )
    assert_outcomes_identical(outcome, simulator.simulate(config))
