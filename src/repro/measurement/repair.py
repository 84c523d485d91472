"""Traceroute repair and AS-path inference (paper §IV-b).

The paper's pipeline, reproduced verbatim:

1. *IP-level gap repair* — if consecutive unresponsive hops are surrounded
   by responsive ones, and the surrounding addresses have a single
   distinct sequence of responsive hops between them in other traceroutes,
   substitute that sequence.
2. *Single-AS bracketing* — map hops to ASes; unresponsive runs whose
   surrounding responsive hops map to the same AS are assigned that AS.
3. *BGP bracketing* — if the surrounding hops map to different ASes,
   substitute the gap with the unique AS sequence observed between those
   ASes in public BGP feeds, when unique.
4. Remaining unmapped or unresponsive hops are dropped from the AS-level
   path.

IXP peering-LAN hops are recognized via the mapper and dropped (they
belong to the exchange, not a member AS).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..types import ASN, ASPath, path_without_prepending
from .ip2as import IPToASMapper
from .traceroute import Traceroute

#: Marker for hops that are unresponsive or unmapped at the AS level.
UNKNOWN = None

#: Explicit reasons a traceroute contributes no AS path.  A dropped
#: traceroute is lossy evidence, not an error: callers account it and
#: continue with the remaining measurements.
DROP_EMPTY = "empty"
DROP_ALL_UNRESPONSIVE = "all-unresponsive"
DROP_ALL_UNMAPPED = "all-unmapped"


#: A gap the IP-level repair looks up: the responsive hops bracketing an
#: unresponsive run and the run's length.
GapQuery = Tuple[int, int, int]


def gap_queries(traceroutes: Iterable[Traceroute]) -> Set[GapQuery]:
    """Every ``(before, after, length)`` bracket :func:`repair_ip_gaps` queries.

    Those are the internal runs of unresponsive hops: a leading or
    trailing run has no responsive hop on one side and is never repaired.
    """
    queries: Set[GapQuery] = set()
    for trace in traceroutes:
        hops = trace.hops
        if None not in hops:
            continue
        before: Optional[int] = None
        run = 0
        for hop in hops:
            if hop is None:
                run += 1
                continue
            if run and before is not None:
                queries.add((before, hop, run))
            before, run = hop, 0
    return queries


def build_gap_index(
    traceroutes: Iterable[Traceroute],
    queries: Optional[Set[GapQuery]] = None,
) -> Dict[Tuple[int, int], Set[Tuple[int, ...]]]:
    """Index fully-responsive inter-address segments across traceroutes.

    For every pair of responsive addresses ``(a, b)`` appearing in some
    traceroute with only responsive hops between them, record the hop
    sequence strictly between ``a`` and ``b``.  Step 1 of the repair uses
    this to fill unresponsive gaps bracketed by ``a`` and ``b``.

    With ``queries`` (see :func:`gap_queries`), only segments that answer
    one of those ``(a, b, length)`` brackets are indexed.  Repair filters
    candidates by bracket and length, so it repairs the queried traces
    exactly as it would with the full index.
    """
    index: Dict[Tuple[int, int], Set[Tuple[int, ...]]] = defaultdict(set)
    # The index is a union of sets, so a hop sequence traced twice adds
    # nothing the second time: index each distinct sequence once.
    distinct = dict.fromkeys(trace.hops for trace in traceroutes)
    if queries is None:
        for hops in distinct:
            for i, first in enumerate(hops):
                if first is None:
                    continue
                segment: List[int] = []
                for j in range(i + 1, len(hops)):
                    hop = hops[j]
                    if hop is None:
                        break
                    index[(first, hop)].add(tuple(segment))
                    segment.append(hop)
        return dict(index)
    # Longest queried gap after each bracketing address bounds the scan.
    reach: Dict[int, int] = {}
    for before, _, length in queries:
        if reach.get(before, 0) < length:
            reach[before] = length
    for hops in distinct:
        for i, first in enumerate(hops):
            longest = reach.get(first)
            if longest is None:
                continue
            for j in range(i + 2, min(len(hops), i + longest + 2)):
                hop = hops[j - 1]
                if hop is None:
                    break
                if (first, hops[j], j - i - 1) in queries:
                    index[(first, hops[j])].add(hops[i + 1 : j])
    return dict(index)


def repair_ip_gaps(
    trace: Traceroute,
    gap_index: Mapping[Tuple[int, int], Set[Tuple[int, ...]]],
) -> Traceroute:
    """Step 1: fill unresponsive runs using unique segments from other traces."""
    if None not in trace.hops:
        return trace
    return Traceroute(
        probe_as=trace.probe_as,
        target=trace.target,
        hops=_repaired_hops(trace.hops, gap_index),
        reached_target=trace.reached_target,
    )


def _repaired_hops(
    hops: Tuple[Optional[int], ...],
    gap_index: Mapping[Tuple[int, int], Set[Tuple[int, ...]]],
) -> Tuple[Optional[int], ...]:
    """:func:`repair_ip_gaps` on a hop tuple holding at least one None.

    Each internal run of Nones is replaced by the one indexed segment of
    its length between the responsive hops bracketing it, when exactly
    one exists; leading and trailing runs are kept as they are.
    """
    repaired: List[Optional[int]] = []
    size = len(hops)
    start = 0
    i = hops.index(None)
    while i < size:
        j = i + 1
        while j < size and hops[j] is None:
            j += 1
        if i == 0 or j == size:  # a leading or trailing run
            i = j
        else:
            length = j - i
            unique = None
            count = 0
            for segment in gap_index.get((hops[i - 1], hops[j]), ()):
                if len(segment) == length:
                    unique = segment
                    count += 1
            if count == 1:
                repaired.extend(hops[start:i])
                repaired.extend(unique)
                start = j
            i = j
        # Advance to the next None, if any.
        while i < size and hops[i] is not None:
            i += 1
    if not start:
        return hops
    repaired.extend(hops[start:])
    return tuple(repaired)


def map_hops_to_ases(
    trace: Traceroute, mapper: IPToASMapper
) -> List[Optional[ASN]]:
    """Map each hop to an AS; IXP and unmapped hops become UNKNOWN."""
    asn_of = mapper.map_address
    return [UNKNOWN if hop is None else asn_of(hop) for hop in trace.hops]


def build_bgp_segment_index(
    bgp_paths: Iterable[ASPath],
) -> Dict[Tuple[ASN, ASN], Set[Tuple[ASN, ...]]]:
    """Index AS sequences strictly between AS pairs on public BGP paths.

    Prepending repetitions are collapsed first; every ordered pair of ASes
    on a path contributes the segment between them.  Step 3 of the repair
    queries this index.
    """
    index: Dict[Tuple[ASN, ASN], Set[Tuple[ASN, ...]]] = defaultdict(set)
    for path in bgp_paths:
        collapsed = path_without_prepending(path)
        for i, first in enumerate(collapsed):
            for j in range(i + 1, len(collapsed)):
                index[(first, collapsed[j])].add(tuple(collapsed[i + 1 : j]))
    return dict(index)


def resolve_as_gaps(
    mapped: Sequence[Optional[ASN]],
    bgp_segments: Optional[Mapping[Tuple[ASN, ASN], Set[Tuple[ASN, ...]]]] = None,
) -> List[Optional[ASN]]:
    """Steps 2 and 3: resolve UNKNOWN runs bracketed by known ASes."""
    resolved: List[Optional[ASN]] = list(mapped)
    if UNKNOWN not in resolved:
        return resolved
    i = 0
    while i < len(resolved):
        if resolved[i] is not UNKNOWN:
            i += 1
            continue
        j = i
        while j < len(resolved) and resolved[j] is UNKNOWN:
            j += 1
        before = resolved[i - 1] if i > 0 else None
        after = resolved[j] if j < len(resolved) else None
        if before is not None and after is not None:
            if before == after:
                for k in range(i, j):
                    resolved[k] = before
            elif bgp_segments is not None:
                candidates = bgp_segments.get((before, after), set())
                nonempty = {seg for seg in candidates if seg}
                if len(nonempty) == 1:
                    replacement = list(next(iter(nonempty)))
                    resolved[i:j] = replacement
                    j = i + len(replacement)
        i = j
    return resolved


def as_path_with_reason(
    trace: Traceroute,
    mapper: IPToASMapper,
    gap_index: Optional[Mapping[Tuple[int, int], Set[Tuple[int, ...]]]] = None,
    bgp_segments: Optional[Mapping[Tuple[ASN, ASN], Set[Tuple[ASN, ...]]]] = None,
) -> Tuple[ASPath, Optional[str]]:
    """Full pipeline, plus an explicit reason when no path survives.

    Returns ``(path, None)`` on success, or ``((), reason)`` when the
    traceroute yields no usable AS-level path: :data:`DROP_EMPTY` (no
    hops at all), :data:`DROP_ALL_UNRESPONSIVE` (every hop timed out),
    or :data:`DROP_ALL_UNMAPPED` (responsive hops exist, but none maps
    to an AS after repair).  Degenerate traceroutes are thereby dropped
    with attribution instead of silently contributing an empty path.

    The result is that of :func:`repair_ip_gaps`, :func:`map_hops_to_ases`
    and :func:`resolve_as_gaps` in turn, with UNKNOWN hops and consecutive
    duplicates then dropped, computed in one pass over the hop tuple.
    """
    hops = trace.hops
    if not hops:
        return (), DROP_EMPTY
    if None in hops:
        if hops.count(None) == len(hops):
            return (), DROP_ALL_UNRESPONSIVE
        if gap_index is not None:
            hops = _repaired_hops(hops, gap_index)
    # Map, bracket and deduplicate in one pass.  A run of UNKNOWN hops
    # between two hops of one AS would be filled with that AS (step 2),
    # which deduplication then collapses, so only a run between two
    # different ASes is looked up among the BGP segments (step 3).
    # Leading and trailing runs have no bracket and are dropped.
    asn_of = mapper.map_address
    path: List[ASN] = []
    append = path.append
    last = UNKNOWN  # path[-1]: where a run starts, the AS left of it
    gap = False  # an UNKNOWN run follows ``last``
    for hop in hops:
        asn = UNKNOWN if hop is None else asn_of(hop)
        if asn is UNKNOWN:
            gap = last is not UNKNOWN
            continue
        if gap:
            gap = False
            if asn != last and bgp_segments is not None:
                unique = None
                count = 0
                for segment in bgp_segments.get((last, asn), ()):
                    if segment:
                        unique = segment
                        count += 1
                if count == 1:
                    for between in unique:
                        if between != last:
                            append(between)
                            last = between
        if asn != last:
            append(asn)
            last = asn
    if not path:
        return (), DROP_ALL_UNMAPPED
    return tuple(path), None


def as_path_from_traceroute(
    trace: Traceroute,
    mapper: IPToASMapper,
    gap_index: Optional[Mapping[Tuple[int, int], Set[Tuple[int, ...]]]] = None,
    bgp_segments: Optional[Mapping[Tuple[ASN, ASN], Set[Tuple[ASN, ...]]]] = None,
) -> ASPath:
    """Full pipeline: repaired, gap-resolved, deduplicated AS-level path.

    Remaining UNKNOWN hops are dropped (paper: "we ignore those hops on
    the AS-level path").  Consecutive duplicates collapse to one AS.
    Degenerate traceroutes yield ``()``; use :func:`as_path_with_reason`
    to learn why.
    """
    path, _ = as_path_with_reason(trace, mapper, gap_index, bgp_segments)
    return path
