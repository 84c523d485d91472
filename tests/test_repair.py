"""Tests for the traceroute repair pipeline (§IV-b)."""

import random

import pytest

from repro.measurement.ip2as import AddressPlan, IPToASMapper
from repro.measurement.repair import (
    DROP_ALL_UNMAPPED,
    DROP_ALL_UNRESPONSIVE,
    DROP_EMPTY,
    as_path_from_traceroute,
    as_path_with_reason,
    build_bgp_segment_index,
    build_gap_index,
    gap_queries,
    map_hops_to_ases,
    repair_ip_gaps,
    resolve_as_gaps,
)
from repro.measurement.traceroute import Traceroute
from repro.types import Prefix


def trace(hops, probe_as=1, reached=True):
    return Traceroute(
        probe_as=probe_as, target=999, hops=tuple(hops), reached_target=reached
    )


class TestGapIndex:
    def test_indexes_responsive_segments(self):
        index = build_gap_index([trace([10, 20, 30])])
        assert index[(10, 30)] == {(20,)}
        assert index[(10, 20)] == {()}

    def test_segments_broken_by_unresponsive(self):
        index = build_gap_index([trace([10, None, 30])])
        assert (10, 30) not in index

    def test_multiple_traces_union(self):
        index = build_gap_index([trace([10, 20, 30]), trace([10, 25, 30])])
        assert index[(10, 30)] == {(20,), (25,)}


class TestIPGapRepair:
    def test_unique_segment_substituted(self):
        """Paper step 1: a gap bracketed by (10, 30) with exactly one
        responsive sequence between them elsewhere is filled."""
        complete = trace([10, 20, 30])
        broken = trace([10, None, 30])
        index = build_gap_index([complete, broken])
        repaired = repair_ip_gaps(broken, index)
        assert repaired.hops == (10, 20, 30)

    def test_ambiguous_segment_left_alone(self):
        index = build_gap_index([trace([10, 20, 30]), trace([10, 25, 30])])
        repaired = repair_ip_gaps(trace([10, None, 30]), index)
        assert repaired.hops == (10, None, 30)

    def test_length_mismatch_not_substituted(self):
        index = build_gap_index([trace([10, 20, 21, 30])])
        repaired = repair_ip_gaps(trace([10, None, 30]), index)
        assert repaired.hops == (10, None, 30)

    def test_multi_hop_gap_repair(self):
        complete = trace([10, 20, 21, 30])
        broken = trace([10, None, None, 30])
        index = build_gap_index([complete])
        assert repair_ip_gaps(broken, index).hops == (10, 20, 21, 30)

    def test_leading_gap_untouched(self):
        index = build_gap_index([trace([10, 20])])
        repaired = repair_ip_gaps(trace([None, 10, 20]), index)
        assert repaired.hops == (None, 10, 20)

    def test_trailing_gap_untouched(self):
        index = build_gap_index([trace([10, 20])])
        repaired = repair_ip_gaps(trace([10, 20, None]), index)
        assert repaired.hops == (10, 20, None)


def random_traces(rng, count):
    """Traces over a small address pool, so brackets recur across traces:
    leading, trailing and internal unresponsive runs, some truncated."""
    traces = []
    for _ in range(count):
        length = rng.randint(1, 10)
        hops = [
            None if rng.random() < 0.3 else rng.randint(1, 9)
            for _ in range(length)
        ]
        if rng.random() < 0.2:
            hops = [None] * rng.randint(1, 3) + hops
        if rng.random() < 0.2:
            hops += [None] * rng.randint(1, 3)
        reached = rng.random() < 0.8
        if reached:
            hops.append(999)
        traces.append(trace(hops, probe_as=rng.randint(1, 5), reached=reached))
    return traces


class TestQueryRestrictedGapIndex:
    def test_gap_queries_are_internal_runs(self):
        queries = gap_queries([trace([None, 10, None, None, 30, 40, None, 50, None])])
        assert queries == {(10, 30, 2), (40, 50, 1)}

    def test_no_queries_without_unresponsive_hops(self):
        assert gap_queries([trace([10, 20, 30])]) == set()

    def test_restricted_index_answers_only_queried_brackets(self):
        traces = [trace([10, 20, 30]), trace([10, 20, 21, 30]), trace([10, None, 30])]
        index = build_gap_index(traces, gap_queries(traces))
        assert index == {(10, 30): {(20,)}}

    @pytest.mark.parametrize("seed", range(40))
    def test_repair_matches_full_index(self, seed):
        rng = random.Random(seed)
        traces = random_traces(rng, rng.randint(1, 60))
        full = build_gap_index(traces)
        restricted = build_gap_index(traces, gap_queries(traces))
        for key, segments in restricted.items():
            assert segments <= full[key]
        for each in traces:
            assert repair_ip_gaps(each, restricted) == repair_ip_gaps(each, full)

    @pytest.mark.parametrize("seed", range(20))
    def test_campaign_restriction_to_reached_traces(self, seed):
        """Queries from the traces that get repaired; index from all."""
        rng = random.Random(500 + seed)
        traces = random_traces(rng, rng.randint(1, 60))
        reached = [each for each in traces if each.reached_target]
        full = build_gap_index(traces)
        restricted = build_gap_index(traces, gap_queries(reached))
        for each in reached:
            assert repair_ip_gaps(each, restricted) == repair_ip_gaps(each, full)


class TestFastPaths:
    def test_fully_responsive_trace_returned_unchanged(self):
        complete = trace([10, 20, 30])
        assert repair_ip_gaps(complete, {}) is complete

    def test_resolution_without_unknown_returns_a_copy(self):
        mapped = [5, 7, 9]
        resolved = resolve_as_gaps(mapped, {})
        assert resolved == [5, 7, 9]
        assert resolved is not mapped


class TestASGapResolution:
    def test_same_as_bracket_filled(self):
        """Paper step 2: gap surrounded by the same AS maps to that AS."""
        assert resolve_as_gaps([5, None, 5]) == [5, 5, 5]

    def test_different_as_bracket_uses_bgp(self):
        """Paper step 3: unique BGP segment between the bracket ASes."""
        segments = build_bgp_segment_index([(5, 7, 9)])
        assert resolve_as_gaps([5, None, 9], segments) == [5, 7, 9]

    def test_ambiguous_bgp_segment_left_unknown(self):
        segments = build_bgp_segment_index([(5, 7, 9), (5, 8, 9)])
        assert resolve_as_gaps([5, None, 9], segments) == [5, None, 9]

    def test_no_bgp_index_leaves_unknown(self):
        assert resolve_as_gaps([5, None, 9]) == [5, None, 9]

    def test_bgp_segment_index_collapses_prepending(self):
        segments = build_bgp_segment_index([(5, 7, 7, 7, 9)])
        assert segments[(5, 9)] == {(7,)}

    def test_gap_at_edges_left_unknown(self):
        assert resolve_as_gaps([None, 5, None]) == [None, 5, None]


class TestFullPipeline:
    def make_mapper(self):
        plan = AddressPlan([1, 2, 3], origin_asn=9)
        ixp_prefix = Prefix.parse("206.0.0.0/24")
        return plan, IPToASMapper(plan, [ixp_prefix]), ixp_prefix

    def test_clean_path(self):
        plan, mapper, _ = self.make_mapper()
        hops = [
            plan.router_address(1, 0),
            plan.router_address(2, 0),
            plan.router_address(3, 0),
            plan.target_address(),
        ]
        path = as_path_from_traceroute(trace(hops), mapper)
        assert path == (1, 2, 3, 9)

    def test_consecutive_hops_in_same_as_collapse(self):
        plan, mapper, _ = self.make_mapper()
        hops = [
            plan.router_address(1, 0),
            plan.router_address(1, 1),
            plan.router_address(2, 0),
        ]
        assert as_path_from_traceroute(trace(hops), mapper) == (1, 2)

    def test_ixp_hops_dropped(self):
        plan, mapper, ixp_prefix = self.make_mapper()
        hops = [
            plan.router_address(1, 0),
            ixp_prefix.network + 7,
            plan.router_address(2, 0),
        ]
        assert as_path_from_traceroute(trace(hops), mapper) == (1, 2)

    def test_unresolvable_hops_ignored(self):
        """Paper: remaining unmapped hops are dropped from the AS path."""
        plan, mapper, _ = self.make_mapper()
        hops = [plan.router_address(1, 0), None, plan.router_address(3, 0)]
        assert as_path_from_traceroute(trace(hops), mapper) == (1, 3)

    def test_full_repair_chain(self):
        plan, mapper, _ = self.make_mapper()
        complete_hops = [
            plan.router_address(1, 0),
            plan.router_address(2, 0),
            plan.router_address(3, 0),
        ]
        broken_hops = [
            plan.router_address(1, 0),
            None,
            plan.router_address(3, 0),
        ]
        gap_index = build_gap_index([trace(complete_hops)])
        path = as_path_from_traceroute(trace(broken_hops), mapper, gap_index)
        assert path == (1, 2, 3)

    def test_bgp_bracketing_in_pipeline(self):
        plan, mapper, _ = self.make_mapper()
        broken_hops = [
            plan.router_address(1, 0),
            None,
            plan.router_address(3, 0),
        ]
        segments = build_bgp_segment_index([(1, 2, 3)])
        path = as_path_from_traceroute(
            trace(broken_hops), mapper, gap_index=None, bgp_segments=segments
        )
        assert path == (1, 2, 3)


class TestMapHops:
    def test_maps_and_marks_unknown(self):
        plan, mapper, ixp_prefix = (
            AddressPlan([1], origin_asn=9),
            None,
            None,
        )
        mapper = IPToASMapper(plan, [Prefix.parse("206.0.0.0/24")])
        hops = [plan.router_address(1, 0), None, 0x01020304, 0xCE000005]
        mapped = map_hops_to_ases(trace(hops), mapper)
        assert mapped == [1, None, None, None]


class TestDropReasons:
    """Degenerate traceroutes are dropped with an explicit reason."""

    def make_mapper(self):
        plan = AddressPlan([1, 2, 3], origin_asn=9)
        ixp_prefix = Prefix.parse("206.0.0.0/24")
        return plan, IPToASMapper(plan, [ixp_prefix]), ixp_prefix

    def test_empty_traceroute_dropped(self):
        _, mapper, _ = self.make_mapper()
        path, reason = as_path_with_reason(trace([]), mapper)
        assert path == ()
        assert reason == DROP_EMPTY

    def test_all_unresponsive_dropped(self):
        _, mapper, _ = self.make_mapper()
        path, reason = as_path_with_reason(trace([None, None, None]), mapper)
        assert path == ()
        assert reason == DROP_ALL_UNRESPONSIVE

    def test_all_unmapped_dropped(self):
        _, mapper, ixp_prefix = self.make_mapper()
        # Responsive hops exist, but every one is an IXP address: the
        # pipeline maps them all to UNKNOWN and nothing survives.
        hops = [int(ixp_prefix.network) + 1, int(ixp_prefix.network) + 2]
        path, reason = as_path_with_reason(trace(hops), mapper)
        assert path == ()
        assert reason == DROP_ALL_UNMAPPED

    def test_usable_traceroute_has_no_reason(self):
        plan, mapper, _ = self.make_mapper()
        hops = [plan.router_address(1, 0), plan.target_address()]
        path, reason = as_path_with_reason(trace(hops), mapper)
        assert path == (1, 9)
        assert reason is None

    def test_partial_unresponsive_still_usable(self):
        plan, mapper, _ = self.make_mapper()
        hops = [None, plan.router_address(2, 0), None]
        path, reason = as_path_with_reason(trace(hops), mapper)
        assert path == (2,)
        assert reason is None

    def test_legacy_api_returns_empty_path(self):
        _, mapper, _ = self.make_mapper()
        assert as_path_from_traceroute(trace([None, None]), mapper) == ()
        assert as_path_from_traceroute(trace([]), mapper) == ()
