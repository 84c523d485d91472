"""Catchments built on demand from a routing outcome's route table.

A simulated outcome's ``catchments`` is a
:class:`~repro.bgp.indexed.RouteCatchments`: its keys are the sorted
announced links from the start, and its sets are built off ``r_link``
the first time one is read.  These tests hold the built sets to the
eager build (each routed AS added in visit order, then frozen), down to
each frozenset's iteration order, over every outcome of the full
``small`` and ``paper`` schedules; check that the maps behave as plain
dicts; and check that the readers asking only which link an AS uses
(per-link volumes, packet generation), a full tracker run and the
large-cluster splitter never build a set.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import random

import pytest

from repro.bgp.indexed import RouteCatchments
from repro.cli import SCALES
from repro.core.labels import Columns, LabelledCatchments, label_row
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.spoof.sources import SourcePlacement
from repro.spoof.traffic import SpoofedTrafficGenerator, link_volumes
from repro.types import LazyCatchments

SEED = 0
#: An AS that is not in any topology: it never has a route.
FOREIGN_AS = 4_200_000_000


def schedule_outcomes(scale: str):
    testbed = build_testbed(seed=SEED, topology_params=SCALES[scale])
    tracker = SpoofTracker(testbed, workers=1)
    tracker.engine.simulate_many(tracker.schedule)
    return testbed, list(tracker.engine._cache.values())


@pytest.fixture(scope="module")
def small():
    return schedule_outcomes("small")


def eager_catchments(outcome):
    """The eager build, through the route table's mapping interface: each
    routed AS added to its link's set in visit order, then frozen."""
    sets = {link: set() for link in sorted(outcome.config.announced)}
    routes = outcome.routes
    for asn in routes:
        sets[routes.link_of(asn)].add(asn)
    return {link: frozenset(members) for link, members in sets.items()}


def placement_over(testbed, rng: random.Random) -> SourcePlacement:
    """Sources in every AS of ``testbed`` and in one foreign AS."""
    ases = sorted(testbed.graph.ases - {testbed.origin.asn}) + [FOREIGN_AS]
    return SourcePlacement({asn: rng.randint(1, 9) for asn in ases})


def unrouted(outcome, testbed) -> set:
    return set(testbed.graph.ases) - {testbed.origin.asn} - set(outcome.routes)


@pytest.mark.parametrize("scale", ["small", "paper"])
def test_built_sets_equal_the_eager_build_in_iteration_order(scale, small):
    testbed, outcomes = small if scale == "small" else schedule_outcomes(scale)
    assert outcomes
    for outcome in outcomes:
        catchments = outcome.catchments
        assert isinstance(catchments, RouteCatchments)
        eager = eager_catchments(outcome)
        assert list(catchments) == list(eager)
        for link, members in eager.items():
            assert list(catchments[link]) == list(members)
        assert catchments.built
        assert catchments == eager


# -- plain-dict behaviour ----------------------------------------------


def fresh_route_map(small) -> RouteCatchments:
    testbed, outcomes = small
    outcome = testbed.simulator.simulate(outcomes[1].config)
    assert not outcome.catchments.built
    return outcome.catchments


def fresh_labelled_map(small) -> LabelledCatchments:
    testbed, outcomes = small
    source = fresh_route_map(small)
    columns = Columns(sorted(outcomes[0].routes)[::2])
    return LabelledCatchments(label_row(source, columns), source)


FRESH = {"route": fresh_route_map, "labelled": fresh_labelled_map}


def reference(lazy: LazyCatchments) -> dict:
    """The plain dict ``lazy`` stands for, read without filling it."""
    return dict(lazy._build(lazy._pending))


@pytest.mark.parametrize("kind", sorted(FRESH))
def test_keys_len_and_membership_build_nothing(kind, small):
    lazy = FRESH[kind](small)
    plain = reference(lazy)
    assert len(lazy) == len(plain) and bool(lazy)
    assert list(lazy) == list(plain)
    assert list(lazy.keys()) == list(plain)
    assert all(link in lazy for link in plain)
    assert "no-such-link" not in lazy
    assert sorted(lazy) == sorted(plain)
    assert not lazy.built


READS = {
    "eq": lambda lazy, plain: lazy == plain and plain == lazy,
    "ne": lambda lazy, plain: not (lazy != plain) and lazy != {},
    "getitem": lambda lazy, plain: all(lazy[k] == v for k, v in plain.items()),
    "get": lambda lazy, plain: lazy.get(next(iter(plain))) == next(iter(plain.values())),
    "values": lambda lazy, plain: list(lazy.values()) == list(plain.values()),
    "items": lambda lazy, plain: list(lazy.items()) == list(plain.items()),
    "dict": lambda lazy, plain: dict(lazy) == plain and {**lazy} == plain,
    "copy": lambda lazy, plain: lazy.copy() == plain,
    "copy.copy": lambda lazy, plain: copy.copy(lazy) == plain,
    "copy.deepcopy": lambda lazy, plain: copy.deepcopy(lazy) == plain,
    "pickle": lambda lazy, plain: pickle.loads(pickle.dumps(lazy)) == plain,
    "json": lambda lazy, plain: (
        json.dumps(lazy, default=sorted) == json.dumps(plain, default=sorted)
    ),
    "repr": lambda lazy, plain: repr(lazy) == repr(plain),
}


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("kind", sorted(FRESH))
def test_reads_behave_like_a_plain_dict(kind, read, small):
    lazy = FRESH[kind](small)
    plain = reference(lazy)
    assert READS[read](lazy, plain)
    assert lazy.built
    assert list(lazy.items()) == list(plain.items())


def test_pickled_map_keeps_its_kind_and_row(small):
    lazy = fresh_labelled_map(small)
    back = pickle.loads(pickle.dumps(lazy))
    assert type(back) is LabelledCatchments and back.built
    assert back.row.labels.tolist() == lazy.row.labels.tolist()
    assert back == lazy


# -- readers that ask only which link an AS uses -----------------------


def test_link_volumes_read_the_route_table_bit_for_bit(small):
    testbed, outcomes = small
    placement = placement_over(testbed, random.Random(7))
    by_as = placement.volume_by_as(3.7)
    with_unrouted = 0
    for config in [outcome.config for outcome in outcomes]:
        outcome = testbed.simulator.simulate(config)
        routed = link_volumes(placement, outcome.catchments, 3.7)
        assert not outcome.catchments.built
        by_sets = link_volumes(placement, dict(outcome.catchments), 3.7)
        assert list(routed.items()) == list(by_sets.items())
        assert repr(routed.unattributed) == repr(by_sets.unattributed)
        missing = unrouted(outcome, testbed)
        with_unrouted += bool(missing)
        assert routed.unattributed == pytest.approx(
            sum(by_as[asn] for asn in missing | {FOREIGN_AS})
        )
    assert with_unrouted > 0


def test_packet_streams_equal_the_set_path(small):
    testbed, outcomes = small
    placement = placement_over(testbed, random.Random(11))
    picked = [o for o in outcomes if unrouted(o, testbed)][:3] + outcomes[:3]
    assert len(picked) == 6
    for index, config in enumerate(o.config for o in picked):
        outcome = testbed.simulator.simulate(config)
        routed = SpoofedTrafficGenerator(
            placement, outcome.catchments, random.Random(index)
        )
        assert not outcome.catchments.built
        by_sets = SpoofedTrafficGenerator(
            placement, dict(outcome.catchments), random.Random(index)
        )
        assert routed.active_source_ases == by_sets.active_source_ases
        assert FOREIGN_AS not in routed.active_source_ases
        assert list(routed.packets(500)) == list(by_sets.packets(500))


def test_packet_generator_lets_a_later_catchment_win_an_overlap():
    placement = SourcePlacement({1: 1, 3: 2, 4: 1, 9: 1})
    overlapping = {"l2": frozenset({3, 4}), "l1": frozenset({1, 2, 3})}
    generator = SpoofedTrafficGenerator(placement, overlapping, random.Random(0))
    assert generator.active_source_ases == [1, 3, 4]
    links = {p.true_source_as: p.ingress_link for p in generator.packets(200)}
    assert links == {1: "l1", 3: "l1", 4: "l2"}


@pytest.mark.parametrize("measured", [False, True])
def test_tracker_run_builds_no_catchment_set(measured):
    testbed = build_testbed(seed=SEED, topology_params=SCALES["small"])
    tracker = SpoofTracker(testbed, workers=1)
    placement = placement_over(testbed, random.Random(3))
    report = tracker.run(placement=placement, measured=measured)
    assert report.localization is not None
    outcomes = list(tracker.engine._cache.values())
    assert len(outcomes) == len(tracker.schedule)
    assert not any(outcome.catchments.built for outcome in outcomes)


#: ``small_testbed`` tracked over 26 configurations with a split
#: threshold of 5 and a budget of 15, pinned while the splitter still
#: built its catchment sets: SHA-256 of the repr of every split
#: snapshot's ``(num_clusters, repr(mean), repr(p90))`` and of the
#: sorted final partition.
SPLIT_SNAPSHOTS = "e3a43ef7143473740c8136e91c99e95c2ff15f9664cb7a602a08913493a397f0"
SPLIT_PARTITION = "be4af7c15232bee076ee6c32e2883ef91fd2317bd2ca0779efc24974f1933f8d"


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_splitter_reads_the_route_table(small_testbed):
    tracker = SpoofTracker(small_testbed)
    report = tracker.run(max_configs=26, split_threshold=5, split_budget=15)
    split = report.split_report
    assert len(split.snapshots) == 15
    snapshots = [
        (s.num_clusters, repr(s.mean_cluster_size), repr(s.p90_cluster_size))
        for s in split.snapshots
    ]
    assert _sha256(snapshots) == SPLIT_SNAPSHOTS
    assert _sha256(sorted(sorted(c) for c in report.clusters)) == SPLIT_PARTITION
    outcomes = list(tracker.engine._cache.values())
    assert all(outcome in outcomes for outcome in split.outcomes)
    assert not any(outcome.catchments.built for outcome in outcomes)
