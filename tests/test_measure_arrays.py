"""The measure phase reads the route arrays and keeps measured maps as rows.

Forwarding paths follow a route table's ``r_from``/``r_link`` arrays and
collector paths are the vantage plus its ``r_path`` entry; these tests
hold both to the :class:`~bgp_reference.RouteMap` oracle, which walks
:class:`~repro.bgp.route.Route` objects, for every AS of every outcome
of the full ``small`` schedule, errors included.  Measured catchment
maps are label rows whose sets are built on first read; a forced read
must equal :meth:`CatchmentHistory.catchment_maps` down to each set's
iteration order.  A full measured tracker run builds no route and no
measured set.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
from dataclasses import replace

import pytest

from bgp_reference import RouteMap
from repro.bgp.indexed import RouteTable
from repro.bgp.route import Route
from repro.cli import SCALES
from repro.core.evidence import Evidence
from repro.core.labels import AssignedCatchments, Columns, label_row
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.errors import SimulationError
from repro.measurement.catchment import (
    CatchmentHistory,
    assignment_to_catchments,
)
from repro.spoof.sources import make_placement
from repro.types import LazyCatchments

SEED = 0
#: An AS that is not in any topology.
FOREIGN_AS = 4_200_000_000
#: Configurations measured for the map-equality tests.
MEASURED_CONFIGS = 40


@pytest.fixture(scope="module")
def small():
    testbed = build_testbed(seed=SEED, topology_params=SCALES["small"])
    tracker = SpoofTracker(testbed, workers=1)
    try:
        outcomes = tracker.engine.simulate_many(tracker.schedule)
    finally:
        tracker.engine.close()
    return testbed, outcomes


def oracle(outcome, testbed) -> RouteMap:
    """The outcome's routes as Route objects, walked one by one."""
    return RouteMap(
        dict(outcome.routes.items()), outcome.origin_asn, testbed.graph.ases
    )


def walk(paths, asn):
    """``paths.forwarding_path(asn)``, or the error's type and message."""
    try:
        return paths.forwarding_path(asn)
    except SimulationError as error:
        return type(error), str(error)


# -- paths off the route arrays ----------------------------------------


def test_paths_equal_the_route_walk_on_the_full_schedule(small):
    testbed, outcomes = small
    asns = sorted(testbed.graph.ases) + [FOREIGN_AS]
    origin = testbed.origin.asn
    unrouted = 0
    for outcome in outcomes:
        routes = outcome.routes
        assert isinstance(routes, RouteTable)
        reference = oracle(outcome, testbed)
        for asn in asns:
            assert walk(routes, asn) == walk(reference, asn)
            assert routes.path_of(asn) == reference.path_of(asn)
            assert routes.link_of(asn) == reference.link_of(asn)
            unrouted += asn in routes.core.index and asn != origin and (
                asn not in reference
            )
        assert outcome.forwarding_path(origin) == (origin,)
        assert testbed.collectors.observe(outcome) == (
            testbed.collectors.observe(replace(outcome, routes=reference))
        )
    assert unrouted > 0
    assert walk(outcomes[0].routes, FOREIGN_AS) == (
        SimulationError,
        f"AS {FOREIGN_AS} is not part of the simulated topology",
    )


def _doctored(routes: RouteTable, r_link, r_from) -> RouteTable:
    return RouteTable(
        routes.core, r_link, r_from, routes.r_rel, routes.r_lp, routes.r_path,
        len(routes) - r_link.count(-1) + routes.r_link.count(-1),
        routes.converged, routes.direct, routes.opath, routes.noexp,
    )


def _chain(small):
    """A routed AS ``a`` whose next hop ``b`` is not the origin."""
    testbed, outcomes = small
    routes = outcomes[0].routes
    origin = testbed.origin.asn
    for a in routes:
        b = routes.r_from[routes.core.index[a]]
        if b != origin:
            return testbed, outcomes[0], routes, a, b
    raise AssertionError("no two-hop chain")


def test_broken_chain_error_matches_the_route_walk(small):
    testbed, outcome, routes, a, b = _chain(small)
    r_link = list(routes.r_link)
    r_link[routes.core.index[b]] = -1
    broken = _doctored(routes, r_link, routes.r_from)
    reference = oracle(replace(outcome, routes=broken), testbed)
    assert b not in broken and b not in reference
    expected = (
        SimulationError,
        f"AS {b} (next hop of AS {a}) holds no route toward the prefix",
    )
    assert walk(broken, a) == walk(reference, a) == expected
    assert walk(broken, b) == walk(reference, b) == (
        SimulationError, f"AS {b} holds no route toward the prefix"
    )


def test_forwarding_loop_error_matches_the_route_walk(small):
    testbed, outcome, routes, a, b = _chain(small)
    r_from = list(routes.r_from)
    r_from[routes.core.index[b]] = a
    looped = _doctored(routes, routes.r_link, r_from)
    reference = oracle(replace(outcome, routes=looped), testbed)
    expected = (
        SimulationError, f"forwarding loop detected starting at AS {a}"
    )
    assert walk(looped, a) == walk(reference, a) == expected


# -- measured maps as label rows -----------------------------------------


@pytest.fixture(scope="module")
def measured(small):
    """Measured evidence of the first configurations, the history of the
    same measurements, and its eager maps."""
    testbed, outcomes = small
    outcomes = outcomes[:MEASURED_CONFIGS]
    configs = [outcome.config for outcome in outcomes]
    campaign = testbed.campaign
    evidence = Evidence.build(configs, outcomes, campaign=campaign)
    history = None
    for index, outcome in enumerate(outcomes):
        assignment = campaign.measure(outcome, fault_token=index).assignment
        if history is None:
            history = CatchmentHistory(assignment)
        history.add(assignment)
    return evidence, history, history.catchment_maps(campaign.origin.link_ids)


def test_measured_maps_are_unbuilt_rows(measured):
    evidence, _, eager = measured
    assert len(evidence.maps) == len(eager) == MEASURED_CONFIGS
    for maps, plain in zip(evidence.maps, eager):
        assert isinstance(maps, AssignedCatchments) and not maps.built
        assert list(maps) == list(plain)
        # The row is the one the sets would label to.
        want = label_row(plain, evidence.columns)
        assert maps.row.links == want.links
        assert maps.row.labels.tolist() == want.labels.tolist()
        assert maps.row.winner.tolist() == want.winner.tolist()
        assert not maps.built
    for maps, plain in zip(evidence.maps, eager):
        assert maps == plain
        for link, members in plain.items():
            assert list(maps[link]) == list(members)


READS = {
    "eq": lambda lazy, plain: lazy == plain and plain == lazy,
    "dict": lambda lazy, plain: dict(lazy) == plain and {**lazy} == plain,
    "items": lambda lazy, plain: list(lazy.items()) == list(plain.items()),
    "pickle": lambda lazy, plain: (
        pickle.loads(pickle.dumps(lazy)) == plain
        and pickle.dumps(dict(lazy)) == pickle.dumps(plain)
    ),
    "json": lambda lazy, plain: (
        json.dumps(lazy, default=list) == json.dumps(plain, default=list)
    ),
    "deepcopy": lambda lazy, plain: copy.deepcopy(lazy) == plain,
    "repr": lambda lazy, plain: repr(lazy) == repr(plain),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_forced_read_equals_the_eager_maps(read, measured):
    evidence, history, eager = measured
    links = list(eager[0])
    imputed = history.iter_imputed()
    for assignment, plain in zip(imputed, eager):
        maps = AssignedCatchments(assignment, links, evidence.columns)
        assert not maps.built
        assert READS[read](maps, plain)
        assert maps.built
        assert list(maps) == list(plain)
        for link, members in plain.items():
            # Same members, added in the same order: same iteration.
            assert list(maps[link]) == list(members)


def test_assigned_catchments_match_assignment_to_catchments():
    columns = Columns(range(1, 40))
    rng = random.Random(5)
    for _ in range(50):
        links = rng.sample(["l1", "l2", "l3", "l4"], rng.randint(0, 4))
        sources = rng.sample(range(1, 40), rng.randint(0, 39))
        assignment = {
            source: rng.choice(["l1", "l2", "l3", "l4", "l5"]) for source in sources
        }
        lazy = AssignedCatchments(assignment, links, columns)
        plain = assignment_to_catchments(assignment, links)
        assert list(lazy) == list(plain) and not lazy.built
        assert label_row(lazy, columns) is lazy.row
        assert lazy.row.labels.tolist() == (
            label_row(plain, columns).labels.tolist()
        )
        assert list(lazy.items()) == list(plain.items())
        assert all(list(lazy[k]) == list(v) for k, v in plain.items())
        back = pickle.loads(pickle.dumps(lazy))
        assert type(back) is AssignedCatchments and back == plain


# -- a measured run keeps only what it reads -----------------------------


def test_measured_run_builds_no_route_and_no_measured_set(monkeypatch):
    testbed = build_testbed(seed=SEED, topology_params=SCALES["small"])
    candidates = sorted(testbed.topology.stubs or testbed.graph.ases)
    placement = make_placement("pareto", candidates, 40, random.Random(1))
    tracker = SpoofTracker(testbed, workers=1)
    built = []
    route_init = Route.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        route_init(self, *args, **kwargs)

    monkeypatch.setattr(Route, "__init__", counting_init)
    try:
        report = tracker.run(placement=placement, measured=True)
    finally:
        tracker.engine.close()
    assert report.localization is not None
    assert len(report.catchment_history) == len(tracker.schedule)
    assert built == []
    assert all(
        isinstance(maps, LazyCatchments) and not maps.built
        for maps in report.catchment_history
    )
