"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import ccdf_points, cdf_points, percentile
from repro.bgp.announcement import AnnouncementConfig
from repro.bgp.policy import PolicyModel
from repro.bgp.simulator import RoutingSimulator
from repro.core.clustering import ClusterState
from repro.core.evidence import Evidence
from repro.errors import MappingError
from repro.measurement.catchment import (
    KIND_BGP,
    KIND_TRACEROUTE,
    CatchmentObservation,
    resolve_observations,
)
from repro.measurement.ip2as import (
    IXP_BLOCK_BASE,
    AddressPlan,
    IPToASMapper,
    PrefixTrie,
)
from repro.measurement.repair import (
    DROP_ALL_UNMAPPED,
    DROP_ALL_UNRESPONSIVE,
    DROP_EMPTY,
    UNKNOWN,
    as_path_with_reason,
    build_bgp_segment_index,
    build_gap_index,
    gap_queries,
    map_hops_to_ases,
    repair_ip_gaps,
    resolve_as_gaps,
)
from repro.measurement.traceroute import Traceroute
from repro.types import Prefix, path_without_prepending
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.peering import attach_origin

from bgp_reference import ReferenceSweep

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

asns = st.integers(min_value=1, max_value=10**6)
as_paths = st.lists(asns, min_size=0, max_size=12).map(tuple)


def prefix_strategy():
    def build(length, seedbits):
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        return Prefix(seedbits & mask, length)

    return st.builds(
        build,
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


# ----------------------------------------------------------------------
# AS-path helpers
# ----------------------------------------------------------------------


class TestPathCollapse:
    @given(as_paths)
    def test_idempotent(self, path):
        collapsed = path_without_prepending(path)
        assert path_without_prepending(collapsed) == collapsed

    @given(as_paths)
    def test_no_consecutive_duplicates(self, path):
        collapsed = path_without_prepending(path)
        assert all(a != b for a, b in zip(collapsed, collapsed[1:]))

    @given(as_paths.filter(lambda p: len(p) > 0))
    def test_preserves_endpoints_and_order(self, path):
        collapsed = path_without_prepending(path)
        assert collapsed[0] == path[0]
        assert collapsed[-1] == path[-1]
        # Collapsed is a subsequence of the original.
        iterator = iter(path)
        assert all(any(x == item for item in iterator) for x in collapsed)


# ----------------------------------------------------------------------
# Prefix trie vs linear scan
# ----------------------------------------------------------------------


class TestTrieMatchesLinearScan:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(prefix_strategy(), min_size=1, max_size=30),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=30),
    )
    def test_lpm_equivalence(self, prefixes, addresses):
        trie = PrefixTrie()
        inserted = []
        for index, prefix in enumerate(prefixes):
            try:
                trie.insert(prefix, index)
                inserted.append((prefix, index))
            except MappingError:
                pass  # duplicate prefix with different value
        for address in addresses:
            expected, best = None, -1
            for prefix, value in inserted:
                if prefix.contains_address(address) and prefix.length > best:
                    expected, best = value, prefix.length
            assert trie.lookup(address) == expected


# ----------------------------------------------------------------------
# Cluster refinement invariants
# ----------------------------------------------------------------------

universes = st.sets(asns, min_size=1, max_size=40)


class TestClusterInvariants:
    @settings(max_examples=60, deadline=None)
    @given(universes, st.lists(st.sets(asns, max_size=25), max_size=8))
    def test_always_a_partition(self, universe, catchments):
        state = ClusterState(universe)
        for catchment in catchments:
            state.refine(catchment)
        seen = set()
        for cluster in state.clusters():
            assert cluster, "empty cluster"
            assert not cluster & seen, "overlapping clusters"
            seen |= cluster
        assert seen == set(universe)

    @settings(max_examples=60, deadline=None)
    @given(universes, st.sets(asns, max_size=25))
    def test_refine_idempotent(self, universe, catchment):
        state = ClusterState(universe)
        state.refine(catchment)
        before = state.clusters()
        assert state.refine(catchment) == 0
        assert state.clusters() == before

    @settings(max_examples=40, deadline=None)
    @given(
        universes,
        st.lists(st.sets(asns, max_size=25), min_size=2, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_final_partition_order_independent(self, universe, catchments, rnd):
        ordered = ClusterState(universe)
        for catchment in catchments:
            ordered.refine(catchment)
        shuffled_catchments = list(catchments)
        rnd.shuffle(shuffled_catchments)
        shuffled = ClusterState(universe)
        for catchment in shuffled_catchments:
            shuffled.refine(catchment)
        assert ordered.clusters() == shuffled.clusters()

    @settings(max_examples=60, deadline=None)
    @given(universes, st.lists(st.sets(asns, max_size=25), max_size=6))
    def test_mean_size_consistent(self, universe, catchments):
        state = ClusterState(universe)
        for catchment in catchments:
            state.refine(catchment)
        assert state.mean_size() * state.num_clusters() == len(universe)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


class TestStatsProperties:
    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=50))
    def test_ccdf_bounds_and_monotonicity(self, values):
        points = ccdf_points(values)
        ys = [y for _, y in points]
        assert ys[0] == 1.0
        assert all(0.0 < y <= 1.0 for y in ys)
        assert ys == sorted(ys, reverse=True)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_cdf_ends_at_one(self, values):
        points = cdf_points(values)
        assert points[-1][1] == 1.0

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_within_range(self, values, pct):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)


# ----------------------------------------------------------------------
# Announcement AS-path construction
# ----------------------------------------------------------------------


class TestAnnouncementProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.sets(asns, max_size=3),
        st.booleans(),
    )
    def test_announced_path_structure(self, prepend_count, poisons, prepend):
        config = AnnouncementConfig(
            announced=frozenset(["l1"]),
            prepended=frozenset(["l1"]) if prepend else frozenset(),
            poisoned={"l1": frozenset(poisons)} if poisons else {},
            prepend_count=prepend_count,
        )
        origin = 47065
        path = config.as_path_for_link(origin, "l1")
        copies = 1 + (prepend_count if prepend else 0)
        assert path[0] == origin
        assert path[-1] == origin
        assert len(path) == copies + 2 * len(poisons - {origin})
        for poisoned in poisons - {origin}:
            index = path.index(poisoned)
            assert path[index - 1] == origin and path[index + 1] == origin


# ----------------------------------------------------------------------
# BGP simulator invariants on random topologies
# ----------------------------------------------------------------------


class TestSimulatorInvariants:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=2, max_value=4),
        st.floats(min_value=0.0, max_value=0.2),
    )
    # A policy draw whose fixpoint oscillates until the pass bound.
    @example(257, 3, 0.125)
    def test_outcome_invariants(self, seed, num_links, noise):
        topo = generate_topology(
            TopologyParams(num_tier1=3, num_transit=12, num_stub=30, seed=seed)
        )
        origin = attach_origin(topo, num_links=num_links, seed=seed)
        policy = PolicyModel(topo.graph, seed=seed, policy_noise=noise)
        simulator = RoutingSimulator(topo.graph, origin, policy)
        rng = random.Random(seed)
        links = origin.link_ids
        announced = frozenset(rng.sample(links, rng.randint(1, len(links))))
        config = AnnouncementConfig(
            announced=announced,
            prepended=frozenset(
                rng.sample(sorted(announced), rng.randint(0, 1))
            ),
        )
        outcome = simulator.simulate(config)
        if not outcome.converged:
            # An oscillation is the specification's answer too, and it is
            # never evidence: every link of its step is degraded, so
            # clustering skips it and NNLS drops its row.
            assert not ReferenceSweep.of(simulator).simulate(config).converged
            evidence = Evidence.build([config], [outcome])
            (step,) = evidence.steps
            assert step.degraded == frozenset(step.catchments)
            assert evidence.planning_maps() == [{}]
            assert evidence.nnls_inputs([None]) == ([], [])
            return
        # Catchments partition the covered ASes.
        union = set()
        for link, members in outcome.catchments.items():
            assert link in announced
            assert not members & union
            union |= members
        assert union == set(outcome.covered_ases)
        # Forwarding paths are loop-free and terminate at the origin.
        for asn in outcome.covered_ases:
            path = outcome.forwarding_path(asn)
            assert len(path) == len(set(path))
            assert path[-1] == origin.asn
        # Control-plane paths end at the origin and enter via the right
        # provider for the claimed link.
        for asn, route in outcome.routes.items():
            assert route.as_path[-1] == origin.asn
            first_origin = route.as_path.index(origin.asn)
            if first_origin > 0:
                provider = route.as_path[first_origin - 1]
                assert origin.link_toward_provider(provider).link_id == (
                    route.link_id
                )


# ----------------------------------------------------------------------
# Measure-phase fast paths against their step-by-step definitions
# ----------------------------------------------------------------------

_PLAN = AddressPlan([1, 2, 3], origin_asn=9)
_IXP_LAN = Prefix(IXP_BLOCK_BASE, 24)
_MAPPER = IPToASMapper(_PLAN, [_IXP_LAN])
_UNMAPPED = 1 << 24  # below every AS block
#: Two routers in AS 1, one in each other AS, a peering-LAN address and an
#: unmapped one: a small pool, so brackets and segments recur across traces.
_HOP_POOL = [
    _PLAN.router_address(1, 0),
    _PLAN.router_address(1, 1),
    _PLAN.router_address(2, 0),
    _PLAN.router_address(3, 0),
    _PLAN.router_address(9, 0),
    _IXP_LAN.network + 1,
    _UNMAPPED,
]

hop_tuples = st.lists(
    st.one_of(st.none(), st.sampled_from(_HOP_POOL)), max_size=8
).map(tuple)
bgp_path_lists = st.lists(
    st.lists(st.sampled_from([1, 2, 3, 9]), min_size=1, max_size=4).map(tuple),
    max_size=5,
)


def reference_repair(hops, gap_index):
    """IP-level gap repair walking the hops one at a time (§IV-b step 1)."""
    repaired = []
    i = 0
    while i < len(hops):
        hop = hops[i]
        if hop is not None or not repaired or repaired[-1] is None:
            repaired.append(hop)
            i += 1
            continue
        j = i
        while j < len(hops) and hops[j] is None:
            j += 1
        if j >= len(hops):
            repaired.extend(hops[i:])
            break
        candidates = gap_index.get((repaired[-1], hops[j]), set())
        plausible = {seg for seg in candidates if len(seg) == j - i}
        if len(plausible) == 1:
            repaired.extend(next(iter(plausible)))
        else:
            repaired.extend(hops[i:j])
        i = j
    return tuple(repaired)


def composed_as_path(trace, mapper, gap_index, bgp_segments):
    """repair_ip_gaps → map_hops_to_ases → resolve_as_gaps → dedupe."""
    if not trace.hops:
        return (), DROP_EMPTY
    if all(hop is None for hop in trace.hops):
        return (), DROP_ALL_UNRESPONSIVE
    if gap_index is not None:
        trace = repair_ip_gaps(trace, gap_index)
    resolved = resolve_as_gaps(map_hops_to_ases(trace, mapper), bgp_segments)
    path = []
    for asn in resolved:
        if asn is not UNKNOWN and (not path or path[-1] != asn):
            path.append(asn)
    if not path:
        return (), DROP_ALL_UNMAPPED
    return tuple(path), None


@st.composite
def repair_cases(draw):
    """A hop tuple plus other traces: copies of it with some unresponsive
    hops answered (so its gaps have candidate segments, unique or not)
    and unrelated traces."""
    hops = draw(hop_tuples)
    answers = st.lists(
        st.one_of(st.none(), st.sampled_from(_HOP_POOL)),
        min_size=len(hops),
        max_size=len(hops),
    )
    others = [
        tuple(hop if hop is not None else answer for hop, answer in zip(hops, fill))
        for fill in draw(st.lists(answers, max_size=4))
    ]
    others += draw(st.lists(hop_tuples, max_size=4))
    return hops, others


_A1, _B1, _A2, _A3, _A9 = _HOP_POOL[:5]


class TestRepairFastPath:
    @settings(max_examples=300, deadline=None)
    @given(repair_cases())
    @example(((None, None), []))
    @example(((None, _A1, _A2), [(_A2, _A3, _A1)]))  # a leading run is kept
    @example(((_A1, None, _A2), [(_A1, _A3, _A2), (_A1, _A9, _A2)]))  # ambiguous
    def test_gap_repair_matches_walk(self, case):
        hops, others = case
        index = build_gap_index(
            [Traceroute(1, 0, each, True) for each in others + [hops]]
        )
        trace = Traceroute(1, 0, hops, True)
        assert repair_ip_gaps(trace, index).hops == reference_repair(hops, index)

    @settings(max_examples=300, deadline=None)
    @given(
        repair_cases(),
        bgp_path_lists,
        st.sampled_from(["none", "full", "queried"]),
        st.booleans(),
    )
    @example(((), []), [], "full", True)
    @example(((None, None, None), []), [], "full", True)
    @example(((None, _A1, None, _A2, None), []), [], "full", True)
    @example(((_A1, None, _A2), []), [(1, 3, 2)], "none", True)  # BGP bracket
    @example(((_A1, None, _A2), []), [(1, 3, 2), (1, 9, 2)], "none", True)
    @example(((_A1, None, _B1), []), [(1, 2, 1)], "none", True)  # one AS
    @example(((_A1, _HOP_POOL[5], _A1), []), [], "none", False)  # IXP hop
    @example(((_HOP_POOL[5], _HOP_POOL[6]), []), [], "none", False)
    def test_one_pass_matches_composition(
        self, case, bgp_paths, index_mode, with_segments
    ):
        hops, others = case
        traces = [Traceroute(1, 0, each, True) for each in others + [hops]]
        gap_index = {
            "none": None,
            "full": build_gap_index(traces),
            "queried": build_gap_index(traces, gap_queries(traces)),
        }[index_mode]
        segments = build_bgp_segment_index(bgp_paths) if with_segments else None
        trace = traces[-1]
        assert as_path_with_reason(
            trace, _MAPPER, gap_index, segments
        ) == composed_as_path(trace, _MAPPER, gap_index, segments)


observation_rows = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["l1", "l2", "l3"]),
        st.sampled_from([KIND_BGP, KIND_TRACEROUTE]),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=25,
)


def _resolved(observations):
    assignment, stats = resolve_observations(observations)
    return list(assignment.items()), stats


class TestWeightedResolution:
    @settings(max_examples=200, deadline=None)
    @given(observation_rows)
    def test_weighted_rows_match_their_expansion(self, rows):
        weighted = [
            CatchmentObservation(source, link, kind, weight)
            for source, link, kind, weight in rows
        ]
        expanded = [
            CatchmentObservation(source, link, kind)
            for source, link, kind, weight in rows
            for _ in range(weight)
        ]
        assert _resolved(weighted) == _resolved(expanded)

    @settings(max_examples=200, deadline=None)
    @given(observation_rows)
    def test_first_seen_tally_matches_sightings(self, rows):
        """Tallying sightings per (source, link, kind) in first-seen order,
        as the campaign does, keeps the assignment and its order."""
        sightings = [(source, link, kind) for source, link, kind, _ in rows]
        tally = {}
        for key in sightings:
            tally[key] = tally.get(key, 0) + 1
        weighted = [
            CatchmentObservation(source, link, kind, weight)
            for (source, link, kind), weight in tally.items()
        ]
        unweighted = [CatchmentObservation(*key) for key in sightings]
        assert _resolved(weighted) == _resolved(unweighted)
