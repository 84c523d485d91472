"""Compact route state: typed table columns and one tuple per AS path.

Every simulated outcome stays in the engine's cache until the
attribution solve, so its :class:`~repro.bgp.indexed.RouteTable` is
kept small: the scalar columns are typed arrays (``r_link`` 2 bytes,
``r_from`` and ``r_lp`` 4, ``r_rel`` and ``r_plen`` 1 per AS), and every
path tuple is the one object :attr:`CompiledTopology.paths` interns for
its value, shared by all outcomes of a core.  These tests hold that
layout over the full ``small`` schedule and a ``paper`` warm-start
chain, hold warm starts seeded from compact tables to the reference
sweep, and bound the memory the ``small`` schedule's outcomes retain.

The memory bound is relative to the layout with five n-long lists and
one path tuple per route: :func:`retained_schedule_bytes` measured
10,772,680 bytes for it (seed 0, CPython 3.11), and the bound is 60% of
that figure.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.bgp.indexed import RouteTable
from repro.bgp.route import Route
from repro.cli import SCALES
from repro.core.engine import SimulationEngine
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.topology.relationships import Relationship

from bgp_reference import ReferenceSweep

SEED = 0

#: Bytes the full ``small`` schedule's outcomes retained with list
#: columns and unshared path tuples (see the module docstring).
LIST_LAYOUT_BYTES = 10_772_680

#: Typecodes of the typed columns (``r_rel``/``r_plen`` are bytearrays).
TYPECODES = {"r_link": "h", "r_from": "I", "r_lp": "i"}


def _schedule_outcomes(scale: str):
    testbed = build_testbed(seed=SEED, topology_params=SCALES[scale])
    tracker = SpoofTracker(testbed, workers=1)
    tracker.engine.simulate_many(tracker.schedule)
    return testbed, list(tracker.engine._cache.values())


@pytest.fixture(scope="module")
def small():
    return _schedule_outcomes("small")


@pytest.fixture(scope="module")
def paper_chain():
    """A prepended subset configuration of the ``paper`` schedule on a
    fresh engine: its parent (the plain subset) is warm-started from
    the anycast-all root, and it from that parent."""
    testbed = build_testbed(seed=SEED, topology_params=SCALES["paper"])
    links = frozenset(testbed.origin.link_ids)
    tracker = SpoofTracker(testbed, workers=1)
    config = next(
        c for c in tracker.schedule if c.prepended and c.announced != links
    )
    engine = SimulationEngine(testbed.simulator)
    engine.simulate(config)
    outcomes = list(engine._cache.values())  # root, parent, config
    assert [o.warm_started for o in outcomes] == [False, True, True]
    return testbed, outcomes


def assert_compact(outcomes):
    paths = {}
    for outcome in outcomes:
        routes = outcome.routes
        n = routes.core.n
        for name, code in TYPECODES.items():
            column = getattr(routes, name)
            assert column.typecode == code and len(column) == n, name
            assert column.itemsize <= 4
        for name in ("r_rel", "r_plen"):
            column = getattr(routes, name)
            assert type(column) is bytearray and len(column) == n, name
        assert len(routes.r_path) == n
        assert len(routes) == n - routes.r_link.count(-1)
        for i, path in enumerate(routes.r_path):
            assert (path is None) == (routes.r_link[i] < 0)
            assert routes.r_plen[i] == (0 if path is None else len(path))
            if path is not None:
                assert paths.setdefault(path, path) is path
    return paths


def test_small_schedule_tables_are_compact(small):
    _, outcomes = small
    paths = assert_compact(outcomes)
    # Distinct path objects equal distinct path values: each value is
    # one object, the core's interned one.
    assert len({id(p) for p in paths.values()}) == len(paths)
    interned = outcomes[0].routes.core.paths
    assert all(interned[path] is path for path in paths)


def test_paper_warm_start_chain_is_compact(paper_chain):
    _, outcomes = paper_chain
    paths = assert_compact(outcomes)
    interned = outcomes[0].routes.core.paths
    assert all(interned[path] is path for path in paths)


def test_lookups_return_relationship_enums(small):
    _, outcomes = small
    for route in list(outcomes[-1].routes.values())[:50]:
        assert type(route.relationship) is Relationship
        assert type(route.local_pref) is int


def _assert_matches_reference(simulator, parent, child):
    """``child`` seeded with ``parent``'s compact table equals the
    reference sweep seeded with the same routes as a dict."""
    table = parent.routes
    warm = simulator.simulate(child, warm_start=table)
    reference = ReferenceSweep.of(simulator).simulate(
        child, warm_start=dict(table)
    )
    assert warm.routes == reference.routes
    assert warm.passes == reference.passes
    assert warm.decision_changes == reference.decision_changes
    assert warm.converged == reference.converged


def test_small_warm_starts_from_compact_tables_match_reference(small):
    testbed, _ = small
    simulator = testbed.simulator
    links = sorted(testbed.origin.link_ids)
    root = simulator.simulate(anycast_all(links))
    subset = AnnouncementConfig(announced=frozenset(links[:3]))
    middle = simulator.simulate(subset, warm_start=root.routes)
    children = [
        (root, subset),
        (root, AnnouncementConfig(announced=frozenset(links[1:2]))),
        (middle, AnnouncementConfig(
            announced=subset.announced, prepended=frozenset(links[:1]),
        )),
        (middle, AnnouncementConfig(
            announced=subset.announced,
            poisoned={links[0]: frozenset(sorted(testbed.graph.ases)[:1])},
        )),
    ]
    for parent, child in children:
        _assert_matches_reference(simulator, parent, child)


def test_paper_warm_start_from_compact_table_matches_reference(paper_chain):
    testbed, (root, middle, leaf) = paper_chain
    _assert_matches_reference(testbed.simulator, middle, leaf.config)


def test_table_from_plain_lists_reads_the_same(small):
    """A table built from lists (``r_plen`` derived) reads and seeds
    exactly as the compact one."""
    testbed, outcomes = small
    routes = outcomes[1].routes
    listed = RouteTable(
        routes.core, list(routes.r_link), list(routes.r_from),
        list(routes.r_rel), list(routes.r_lp), list(routes.r_path),
        len(routes), routes.converged, routes.direct, routes.opath,
        routes.noexp,
    )
    assert listed.r_plen == routes.r_plen
    assert dict(listed) == dict(routes)
    for asn in list(routes)[:20]:
        assert listed.forwarding_path(asn) == routes.forwarding_path(asn)
        assert isinstance(listed[asn], Route)
    child = outcomes[-1].config
    a = testbed.simulator.simulate(child, warm_start=routes)
    b = testbed.simulator.simulate(child, warm_start=listed)
    assert (a.routes, a.passes, a.decision_changes) == (
        b.routes, b.passes, b.decision_changes
    )


def retained_schedule_bytes() -> int:
    """Bytes still traced after simulating the full ``small`` schedule,
    with the engine (and so every outcome) alive.  The core is compiled
    before tracing starts, so the figure is the outcomes' route state,
    catchments and whatever the core grew for them."""
    testbed = build_testbed(seed=SEED, topology_params=SCALES["small"])
    tracker = SpoofTracker(testbed, workers=1)
    testbed.simulator.simulate(tracker.schedule[0])  # compiles the core
    gc.collect()
    tracemalloc.start()
    try:
        tracker.engine.simulate_many(tracker.schedule)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tracker.engine._cache) == 473
    return retained


def test_small_schedule_retains_at_most_60_percent():
    assert retained_schedule_bytes() <= 0.60 * LIST_LAYOUT_BYTES
