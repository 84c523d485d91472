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
Warm starts seeded with a converged outcome's ``RouteTable`` run pass 1
over a dirty frontier only; they are held to the oracle, and to the same
seed given as a plain dict (full pass 1), on every engine shape.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.bgp.indexed import CompiledTopology, RouteTable
from repro.bgp.policy import PolicyModel
from repro.bgp.route import stable_tiebreak
from repro.bgp.simulator import RoutingSimulator
from repro.core.engine import SimulationEngine
from repro.core.pipeline import build_testbed
from repro.errors import SimulationError
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.graph import ASGraph
from repro.topology.peering import OriginNetwork, PeeringLink, attach_origin
from repro.topology.relationships import Relationship

from bgp_reference import ReferenceSweep


def _fresh_topology(seed):
    """A private small topology (attach_origin mutates, so no fixtures)."""
    return generate_topology(
        TopologyParams(num_tier1=4, num_transit=30, num_stub=100, seed=seed)
    )


def assert_outcomes_identical(a, b):
    """Field-for-field equality of two routing outcomes."""
    assert a.routes == b.routes
    assert len(a.routes) == len(b.routes)
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
    outcome = compiled.propagate(config, None, simulator.max_passes, False)
    assert_outcomes_identical(
        outcome, ReferenceSweep.of(simulator).simulate(config)
    )


# ----------------------------------------------------------------------
# RouteTable: the outcome's read-only route mapping
# ----------------------------------------------------------------------


def _random_testbed(seed):
    testbed = build_testbed(
        seed=seed,
        topology_params=TopologyParams(
            num_tier1=4, num_transit=25, num_stub=90, seed=seed
        ),
        num_links=5,
        num_vantages=6,
        num_probes=10,
    )
    return testbed.topology.graph, testbed.origin, testbed.policy


class TestRouteTable:
    @pytest.fixture()
    def pair(self):
        graph, origin, policy = _random_testbed(seed=1)
        simulator = RoutingSimulator(graph, origin, policy)
        config = anycast_all(origin.link_ids)
        outcome = simulator.simulate(config)
        want = ReferenceSweep.of(simulator).simulate(config)
        return simulator, outcome, want

    def test_iterates_in_visit_order(self, pair):
        simulator, outcome, want = pair
        assert isinstance(outcome.routes, RouteTable)
        expected = [asn for asn in simulator._visit_order if asn in want.routes]
        assert list(outcome.routes) == expected
        assert list(outcome.routes.keys()) == expected
        assert list(outcome.routes.items()) == [
            (asn, want.routes[asn]) for asn in expected
        ]

    def test_len_and_membership(self, pair):
        simulator, outcome, want = pair
        routes = outcome.routes
        assert len(routes) == len(want.routes) > 0
        assert all(asn in routes for asn in want.routes)
        assert simulator.origin.asn not in routes
        for unknown in (-1, 10**9, "AS1"):
            assert unknown not in routes
        unrouted = set(simulator.graph.ases) - set(want.routes)
        assert all(asn not in routes for asn in unrouted)

    def test_lookups(self, pair):
        simulator, outcome, want = pair
        routes = outcome.routes
        asn = next(iter(want.routes))
        assert routes[asn] == want.routes[asn]
        assert routes.get(asn) == want.routes[asn]
        # Each lookup builds a fresh route; the table keeps none.
        assert routes[asn] is not routes.get(asn)
        assert not hasattr(routes, "__dict__") and "_memo" not in RouteTable.__slots__
        sentinel = object()
        assert routes.get(10**9) is None
        assert routes.get(10**9, sentinel) is sentinel
        assert routes.get(simulator.origin.asn, sentinel) is sentinel
        with pytest.raises(KeyError):
            routes[10**9]
        with pytest.raises(KeyError):
            routes[simulator.origin.asn]

    def test_equality_with_dicts(self, pair):
        _, outcome, want = pair
        plain = dict(want.routes)
        assert outcome.routes == plain
        assert plain == outcome.routes
        plain.pop(next(iter(plain)))
        assert outcome.routes != plain

    def test_engine_outcomes_are_read_only(self):
        """Engine outcomes are shared warm-start parents: no assignment."""
        graph, origin, policy = _random_testbed(seed=2)
        engine = SimulationEngine(RoutingSimulator(graph, origin, policy))
        outcome = engine.simulate(anycast_all(origin.link_ids))
        asn = next(iter(outcome.routes))
        with pytest.raises(TypeError):
            outcome.routes[asn] = outcome.routes[asn]
        with pytest.raises(TypeError):
            del outcome.routes[asn]


# ----------------------------------------------------------------------
# Warm starts: the dirty-frontier pass 1 against the oracle
# ----------------------------------------------------------------------


@pytest.fixture()
def frontier_calls(monkeypatch):
    """Counts pass-1 frontier schedules (table seeds of converged parents)."""
    calls = []
    real = CompiledTopology._pass1_frontier

    def spy(self, *args):
        heap = real(self, *args)
        calls.append(len(heap))
        return heap

    monkeypatch.setattr(CompiledTopology, "_pass1_frontier", spy)
    return calls


def _engine_shaped_children(rng, graph, origin, parent):
    """Prepend, poison and no-export children of a plain parent, plus
    locations subsets when the parent announces every link."""
    links = sorted(parent.announced)
    children = [
        AnnouncementConfig(
            announced=parent.announced,
            prepended=frozenset(rng.sample(links, rng.randint(1, len(links)))),
            prepend_count=rng.choice([1, 2, 4]),
        ),
    ]
    victims = rng.sample(sorted(graph.ases - {origin.asn}), 2)
    children.append(
        AnnouncementConfig(
            announced=parent.announced,
            poisoned={rng.choice(links): frozenset(victims)},
        )
    )
    link = rng.choice(links)
    provider = origin.provider_of(link)
    neighbors = sorted(set(graph.neighbors(provider)) - {origin.asn})
    children.append(
        AnnouncementConfig(
            announced=parent.announced,
            no_export={link: frozenset(rng.sample(neighbors, min(2, len(neighbors))))},
        )
    )
    if parent.announced == frozenset(origin.link_ids):
        for size in (1, len(links) - 1):
            children.append(
                AnnouncementConfig(announced=frozenset(rng.sample(links, size)))
            )
    return children


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_engine_shaped_warm_starts_match_oracle(seed, frontier_calls):
    """Table seeds (frontier pass 1) and dict seeds (full pass 1) of the
    engine's parent/child shapes agree with the oracle bit for bit."""
    graph, origin, policy = _random_testbed(seed)
    indexed = RoutingSimulator(graph, origin, policy)
    reference = ReferenceSweep.of(indexed)
    rng = random.Random(seed + 41)
    links = origin.link_ids
    parents = [anycast_all(links)] + [
        AnnouncementConfig(announced=frozenset(rng.sample(links, 3)))
        for _ in range(2)
    ]
    trials = 0
    for parent in parents:
        parent_i = indexed.simulate(parent)
        parent_r = reference.simulate(parent)
        assert parent_i.converged
        for child in _engine_shaped_children(rng, graph, origin, parent):
            before = len(frontier_calls)
            warm_i = indexed.simulate(child, warm_start=parent_i.routes)
            assert len(frontier_calls) == before + 1
            warm_r = reference.simulate(child, warm_start=parent_r.routes)
            assert_outcomes_identical(warm_i, warm_r)
            warm_d = indexed.simulate(child, warm_start=dict(parent_i.routes))
            assert len(frontier_calls) == before + 1  # dict: full pass 1
            assert_outcomes_identical(warm_d, warm_i)
            trials += 1
    assert trials == 11
    # The frontier is a strict subset of the ASes on these shapes.
    assert min(frontier_calls) < len(indexed._visit_order)


def test_non_converged_parent_takes_full_pass_one(frontier_calls):
    """A parent cut at max_passes is no fixpoint: its table seeds a full
    pass 1, and the result still matches the oracle."""
    graph, origin, policy = _random_testbed(seed=0)
    indexed = RoutingSimulator(graph, origin, policy, max_passes=1)
    reference = ReferenceSweep.of(indexed)
    parent = anycast_all(origin.link_ids)
    parent_i = indexed.simulate(parent)
    assert not parent_i.converged
    child = AnnouncementConfig(announced=frozenset(origin.link_ids[:2]))
    warm_i = indexed.simulate(child, warm_start=parent_i.routes)
    assert frontier_calls == []
    assert_outcomes_identical(
        warm_i, reference.simulate(child, warm_start=reference.simulate(parent).routes)
    )


def test_table_of_another_core_is_a_foreign_seed(frontier_calls):
    """A table from another simulator is read like any other mapping."""
    graph, origin, policy = _random_testbed(seed=3)
    indexed = RoutingSimulator(graph, origin, policy)
    other = RoutingSimulator(graph, origin, policy)
    parent = anycast_all(origin.link_ids)
    seed_routes = other.simulate(parent).routes
    child = AnnouncementConfig(announced=frozenset(origin.link_ids[1:]))
    warm = indexed.simulate(child, warm_start=seed_routes)
    assert frontier_calls == []
    assert_outcomes_identical(
        warm, ReferenceSweep.of(indexed).simulate(child, warm_start=seed_routes)
    )


def test_dropped_seed_without_upstream_route_is_reevaluated(frontier_calls):
    """Withdrawing l1 leaves its provider with no route at all, so the
    provider's re-evaluation changes nothing and pushes no neighbor; its
    customer, whose seed was dropped, must still re-select in pass 1."""
    origin_asn, p1, p2, q, c = 100, 1, 2, 3, 4
    graph = ASGraph()
    graph.add_link(origin_asn, p1, Relationship.PROVIDER)
    graph.add_link(origin_asn, p2, Relationship.PROVIDER)
    graph.add_link(q, p2, Relationship.PROVIDER)
    graph.add_link(c, q, Relationship.PROVIDER)
    graph.add_link(c, p1, Relationship.PROVIDER)
    origin = OriginNetwork(
        origin_asn,
        [
            PeeringLink(link_id="l1", provider=p1, provider_name="One"),
            PeeringLink(link_id="l2", provider=p2, provider_name="Two"),
        ],
    )
    policy = PolicyModel(
        graph, policy_noise=0.0, loop_prevention_disabled_fraction=0.0
    )
    indexed = RoutingSimulator(graph, origin, policy)
    parent = indexed.simulate(anycast_all(["l1", "l2"]))
    assert parent.route(c).learned_from == p1
    child = AnnouncementConfig(announced=frozenset({"l2"}))
    warm = indexed.simulate(child, warm_start=parent.routes)
    assert frontier_calls
    assert warm.route(c).learned_from == q
    assert_outcomes_identical(
        warm,
        ReferenceSweep.of(indexed).simulate(child, warm_start=parent.routes),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_unpoisoned_child_of_poisoned_parent(seed, frontier_calls):
    """With loop prevention off, a victim accepts the poisoned path; the
    plain child keeps those seeds (its path ``(o,)`` ends them) but cuts
    their transit part longer, so the victim's own loop check flips."""
    graph, origin, _ = _random_testbed(seed)
    policy = PolicyModel(graph, seed=seed, loop_prevention_disabled_fraction=1.0)
    indexed = RoutingSimulator(graph, origin, policy)
    reference = ReferenceSweep.of(indexed)
    plain = anycast_all(origin.link_ids)
    base = indexed.simulate(plain)
    rng = random.Random(seed)
    for link in origin.link_ids:
        routed = sorted(base.catchments[link] - {origin.provider_of(link)})
        if not routed:
            continue
        poisoned = AnnouncementConfig(
            announced=plain.announced,
            poisoned={link: frozenset(rng.sample(routed, min(3, len(routed))))},
        )
        parent_i = indexed.simulate(poisoned)
        parent_r = reference.simulate(poisoned)
        warm = indexed.simulate(plain, warm_start=parent_i.routes)
        assert_outcomes_identical(
            warm, reference.simulate(plain, warm_start=parent_r.routes)
        )
    assert frontier_calls


# ----------------------------------------------------------------------
# Decision-aware scheduling: the pushes the core skips, against the oracle
# ----------------------------------------------------------------------


def _assert_children_match_oracle(indexed, reference, parent, children):
    """Each child, cold and seeded from ``parent`` as a table (frontier
    pass 1) and as a dict (full pass 1), agrees with the oracle."""
    parent_i = indexed.simulate(parent)
    parent_r = reference.simulate(parent)
    assert_outcomes_identical(parent_i, parent_r)
    for child in children:
        assert_outcomes_identical(
            indexed.simulate(child), reference.simulate(child)
        )
        want = reference.simulate(child, warm_start=parent_r.routes)
        assert_outcomes_identical(
            indexed.simulate(child, warm_start=parent_i.routes), want
        )
        assert_outcomes_identical(
            indexed.simulate(child, warm_start=dict(parent_i.routes)), want
        )


def _tier1_poisoned_child(rng, graph, parent):
    """Poison tier-1s into one link's path, so leak filters bite."""
    tier1 = sorted(graph.tier1_ases())
    return AnnouncementConfig(
        announced=parent.announced,
        poisoned={
            rng.choice(sorted(parent.announced)): frozenset(
                rng.sample(tier1, min(2, len(tier1)))
            )
        },
    )


@pytest.mark.parametrize(
    "policy_kwargs",
    [
        {"loop_prevention_disabled_fraction": 0.02},
        {"loop_prevention_disabled_fraction": 0.5},
        {"loop_prevention_disabled_fraction": 1.0},
        {"policy_noise": 0.5},
        {"policy_noise": 0.3, "tier1_leak_filtering": True},
        {"policy_noise": 0.3, "tier1_leak_filtering": False},
    ],
    ids=[
        "loop-off-0.02",
        "loop-off-0.5",
        "loop-off-1.0",
        "deviant-0.5",
        "leak-filter-on",
        "leak-filter-off",
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_policy_stress_matches_oracle(seed, policy_kwargs):
    """Poisoning, no-export, prepend and subset children under policies
    where import and export disagree most: loop prevention off, deviant
    LocalPref tables, tier-1 leak filtering on and off."""
    graph, origin, _ = _random_testbed(seed)
    policy = PolicyModel(graph, seed=seed, **policy_kwargs)
    indexed = RoutingSimulator(graph, origin, policy)
    reference = ReferenceSweep.of(indexed)
    rng = random.Random(seed + 59)
    links = origin.link_ids
    for parent in (
        anycast_all(links),
        AnnouncementConfig(announced=frozenset(rng.sample(links, 3))),
    ):
        children = _engine_shaped_children(rng, graph, origin, parent)
        children.append(_tier1_poisoned_child(rng, graph, parent))
        children.extend(_random_config(rng, graph, origin) for _ in range(2))
        _assert_children_match_oracle(indexed, reference, parent, children)


class PinnedPrefs(PolicyModel):
    """Clean policies, except the ASes given a LocalPref table of their
    own (a scalar override, so the core compiles it)."""

    def __init__(self, graph, tables):
        super().__init__(
            graph, policy_noise=0.0, loop_prevention_disabled_fraction=0.0
        )
        self.tables = tables

    def local_pref(self, holder, relationship):
        table = self.tables.get(holder)
        if table is None:
            return super().local_pref(holder, relationship)
        return table[relationship]


def _hand_built(links, edges, prefs=None):
    """Origin 100 with ``links`` ({link_id: provider}) plus ``edges``
    ((a, b, relationship of b to a)); clean Gao-Rexford policies, but
    for the ASes ``prefs`` gives a LocalPref table."""
    graph = ASGraph()
    for provider in links.values():
        graph.add_link(100, provider, Relationship.PROVIDER)
    for a, b, rel in edges:
        graph.add_link(a, b, rel)
    origin = OriginNetwork(
        100,
        [
            PeeringLink(link_id=link, provider=provider, provider_name=link)
            for link, provider in sorted(links.items())
        ],
    )
    policy = PinnedPrefs(graph, prefs or {})
    indexed = RoutingSimulator(graph, origin, policy)
    return indexed, ReferenceSweep.of(indexed)


def test_provider_learned_switch_reaches_customers_only():
    """C switches between two provider-learned routes.  Its customer D
    must follow; its provider T and peer X import neither route, so
    theirs must not change.  D is visited before C (it sits one hop from
    the origin on an unannounced link), so D only sees C's switch if the
    push C -> D is kept."""
    p1, p2, p3, c, d, t, x = 1, 2, 3, 4, 5, 6, 7
    indexed, reference = _hand_built(
        {"l1": p1, "l2": p2, "l3": p3, "l4": d},
        [
            (c, p1, Relationship.PROVIDER),
            (c, p2, Relationship.PROVIDER),
            (c, t, Relationship.PROVIDER),
            (t, p3, Relationship.PROVIDER),
            (d, c, Relationship.PROVIDER),
            (x, c, Relationship.PEER),
            (x, p3, Relationship.PROVIDER),
        ],
    )
    announced = frozenset({"l1", "l2", "l3"})
    parent = AnnouncementConfig(announced=announced, prepended=frozenset({"l2"}))
    child = AnnouncementConfig(announced=announced, prepended=frozenset({"l1"}))
    before = indexed.simulate(parent)
    after = indexed.simulate(child)
    assert before.route(c).learned_from == p1
    assert after.route(c).learned_from == p2
    assert after.route(c).relationship is Relationship.PROVIDER
    assert after.route(d).learned_from == c
    assert after.route(d).as_path == (c,) + after.route(c).as_path
    assert after.route(t) == before.route(t)
    assert after.route(x) == before.route(x)
    _assert_children_match_oracle(indexed, reference, parent, [child])


def test_withdrawal_pushes_every_neighbor_that_imported_the_old_route():
    """A no-export entry cuts X's customer route; X falls back to a
    provider route, which it does not export to its provider U.  U
    imported the old route, so it must be re-evaluated: it is left with
    no route at all, and that withdrawal must reach its customer W.
    U is visited before X and W before U, so each step needs its push."""
    p2, w, u, x, d = 2, 3, 4, 5, 6
    indexed, reference = _hand_built(
        {"l2": p2, "l3": w, "l4": d},
        [
            (x, p2, Relationship.PROVIDER),
            (x, u, Relationship.PROVIDER),
            (d, x, Relationship.PROVIDER),
            (w, u, Relationship.PROVIDER),
        ],
    )
    announced = frozenset({"l2", "l4"})
    parent = AnnouncementConfig(announced=announced)
    child = AnnouncementConfig(
        announced=announced, no_export={"l4": frozenset({x})}
    )
    before = indexed.simulate(parent)
    assert before.route(x).relationship is Relationship.CUSTOMER
    assert before.route(u).learned_from == x
    assert before.route(w).learned_from == u
    after = indexed.simulate(child)
    assert after.route(x).relationship is Relationship.PROVIDER
    assert after.route(u) is None and after.route(w) is None
    _assert_children_match_oracle(indexed, reference, parent, [child])


def test_prepend_pushes_the_neighbor_that_used_the_route():
    """J takes I's first route, through P1, in pass 1.  A pass later I's
    customer D offers a route through l2, which I prefers on LocalPref
    although it is longer.  Unprepended, J keeps following I; with l2
    prepended, I's new route is longer than J's fallback through Q (l3,
    itself prepended).  I's new route is then provably worse than J's
    route, yet J learned that route from I: I's change must push J, or J
    keeps a route I no longer offers."""
    p1, p2, q, e, i, j, d = 1, 2, 3, 4, 5, 8, 9
    indexed, reference = _hand_built(
        {"l1": p1, "l2": p2, "l3": q},
        [
            (p2, e, Relationship.PROVIDER),
            (e, d, Relationship.PROVIDER),
            (d, i, Relationship.PROVIDER),
            (i, p1, Relationship.PROVIDER),
            (j, i, Relationship.PROVIDER),
            (j, q, Relationship.PROVIDER),
        ],
    )
    announced = frozenset({"l1", "l2", "l3"})
    parent = AnnouncementConfig(announced=announced, prepended=frozenset({"l3"}))
    child = AnnouncementConfig(
        announced=announced, prepended=frozenset({"l2", "l3"})
    )
    before = indexed.simulate(parent)
    assert before.route(j).as_path == (i, d, e, p2, 100)
    after = indexed.simulate(child)
    assert after.passes > 2  # I switched after J had taken its route
    assert after.route(i).learned_from == d
    assert after.route(j).learned_from == q
    _assert_children_match_oracle(indexed, reference, parent, [child])


def test_equal_preference_and_length_reaches_the_neighbor():
    """Announcing l1 gives C a route through P1 that ties its route
    through P2 on LocalPref and on length.  A tie is not provably worse:
    C must be pushed, and the tiebreak picks P1."""
    p1, p2, c = 1, 2, 3
    assert stable_tiebreak(c, p1, 0) < stable_tiebreak(c, p2, 0)
    indexed, reference = _hand_built(
        {"l1": p1, "l2": p2},
        [(c, p1, Relationship.PROVIDER), (c, p2, Relationship.PROVIDER)],
    )
    parent = AnnouncementConfig(announced=frozenset({"l2"}))
    child = AnnouncementConfig(announced=frozenset({"l1", "l2"}))
    before = indexed.simulate(parent)
    assert before.route(c).learned_from == p2
    after = indexed.simulate(child, warm_start=before.routes)
    assert after.route(c).learned_from == p1
    assert after.route(c).local_pref == before.route(c).local_pref
    assert len(after.route(c).as_path) == len(before.route(c).as_path)
    _assert_children_match_oracle(indexed, reference, parent, [child])


def test_deviant_local_pref_prefers_the_longer_route():
    """J prefers provider routes (200) to peer routes (100).  Its peer K
    gives it a two-hop route; announcing l1 gives its provider I a
    four-hop route that I itself holds at provider LocalPref 100.  J
    gives routes from I LocalPref 200, so it must be pushed and switch,
    although the route is longer and I's own LocalPref is no higher than
    J's."""
    p1, k, t, i, j = 1, 2, 3, 4, 5
    deviant = {
        Relationship.CUSTOMER: 300,
        Relationship.PEER: 100,
        Relationship.PROVIDER: 200,
    }
    indexed, reference = _hand_built(
        {"l1": p1, "l2": k},
        [
            (p1, t, Relationship.PROVIDER),
            (i, t, Relationship.PROVIDER),
            (j, i, Relationship.PROVIDER),
            (j, k, Relationship.PEER),
        ],
        prefs={j: deviant},
    )
    parent = AnnouncementConfig(announced=frozenset({"l2"}))
    child = AnnouncementConfig(announced=frozenset({"l1", "l2"}))
    before = indexed.simulate(parent)
    assert before.route(j).learned_from == k
    assert before.route(i) is None
    for after in (
        indexed.simulate(child),
        indexed.simulate(child, warm_start=before.routes),
    ):
        assert after.route(i).local_pref == 100
        assert after.route(j).learned_from == i
        assert after.route(j).local_pref == 200
        assert after.route(j).as_path == (i, t, p1, 100)
    _assert_children_match_oracle(indexed, reference, parent, [child])
