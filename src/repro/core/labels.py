"""Catchment maps as link-label rows over a sorted universe.

One configuration's catchments, read over a fixed universe, reduce to
one integer per universe AS, its *label*: 0 when no catchment holds the
AS, ``k`` when only the ``k``-th link (in sorted link order) does, and a
further id per distinct set of overlapping links.  Refining a partition
by a configuration (§III-B) splits each cluster by label, and a
cluster's NNLS column (§III-C) is the link its representative's label
names, so both are array work over these rows.

:func:`label_row` is the one conversion from a catchment mapping to a
row.  :class:`LabelledCatchments` is a catchment dict that carries its
row: the evidence hands these out, the helper returns their row in
O(1), and their frozensets are built only when someone reads them.  A
simulated outcome's :class:`~repro.bgp.indexed.RouteCatchments` is
labelled straight off its route table, so it builds no set either, and
a measured map, :class:`AssignedCatchments`, is written from its source
→ link assignment, one label per source.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence,
)

import numpy as np

from ..bgp.indexed import CompiledTopology, RouteCatchments
from ..measurement.catchment import assignment_to_catchments
from ..types import ASN, Catchment, LazyCatchments, LinkId


class Columns:
    """A universe in sorted order and the column of each member."""

    __slots__ = ("asns", "array", "column", "members", "_core_indices")

    def __init__(self, universe: Iterable[ASN]) -> None:
        self.asns: List[ASN] = sorted(set(universe))
        self.array = np.array(self.asns)
        self.column: Dict[ASN, int] = {
            asn: i for i, asn in enumerate(self.asns)
        }
        self.members: FrozenSet[ASN] = frozenset(self.asns)
        self._core_indices: Dict[CompiledTopology, Optional[np.ndarray]] = {}

    def __reduce__(self):
        # The memo of core indices holds compiled topologies: not state.
        return (Columns, (self.asns,))

    @classmethod
    def of(cls, universe: Iterable[ASN]) -> "Columns":
        """``universe`` itself when it already is one, else its columns."""
        return universe if isinstance(universe, Columns) else cls(universe)

    def __len__(self) -> int:
        return len(self.asns)

    def __iter__(self) -> Iterator[ASN]:
        return iter(self.asns)

    def same(self, other: "Columns") -> bool:
        """True when both have the same members (so the same columns)."""
        return self is other or self.asns == other.asns

    def positions(self, asns: Iterable[ASN]) -> np.ndarray:
        """Column indices of the members among ``asns``."""
        column = self.column
        return np.fromiter(
            (column[asn] for asn in asns if asn in column), dtype=np.intp
        )

    def core_indices(self, core: CompiledTopology) -> Optional[np.ndarray]:
        """The members' indices in ``core``, in column order, or None
        when some member is not in it (memoized per core)."""
        if core not in self._core_indices:
            index = core.index
            self._core_indices[core] = (
                np.array([index[asn] for asn in self.asns], dtype=np.intp)
                if all(asn in index for asn in self.asns) else None
            )
        return self._core_indices[core]


class LabelRow:
    """One configuration's labels over a :class:`Columns` universe.

    Attributes:
        columns: the universe the row has a cell for.
        links: the configuration's links in sorted order; label ``k``
            up to ``len(links)`` is ``links[k - 1]``.
        labels: int32, one label per column.
        winner: per label, the 1-based position in ``links`` of the link
            NNLS credits the cell to (0 for label 0): the link itself,
            or for an overlap the one that comes last in the map's own
            order.
    """

    __slots__ = ("columns", "links", "labels", "winner")

    def __init__(
        self,
        columns: Columns,
        links: Sequence[LinkId],
        labels: np.ndarray,
        winner: Optional[np.ndarray] = None,
    ) -> None:
        self.columns = columns
        self.links = list(links)
        self.labels = labels
        self.winner = (
            np.arange(len(self.links) + 1) if winner is None else winner
        )


def label_row(
    catchments: Mapping[LinkId, Iterable[ASN]],
    columns: Columns,
    skip: Iterable[LinkId] = (),
) -> LabelRow:
    """The label row of ``catchments`` over ``columns``, without the
    links in ``skip``.

    Catchment members outside the universe are ignored.  A
    :class:`LabelledCatchments` over the same universe, with nothing to
    skip, returns its own row.  A :class:`RouteCatchments` is sliced off
    its route table (catchments of one fixpoint are disjoint).
    Otherwise the map is labelled link by link, in sorted order, giving
    each distinct set of overlapping links an id of its own.
    """
    skip = frozenset(skip)
    if (
        not skip
        and isinstance(catchments, LabelledCatchments)
        and catchments.row.columns.same(columns)
    ):
        return catchments.row
    if isinstance(catchments, RouteCatchments):
        row = _route_row(catchments, columns, skip)
        if row is not None:
            return row
    rank = {
        link: order
        for order, link in enumerate(link for link in catchments if link not in skip)
    }
    links = sorted(rank)
    labels = np.zeros(len(columns), dtype=np.int32)
    winner = list(range(len(links) + 1))
    combined: Dict[tuple, int] = {}
    for label, link in enumerate(links, start=1):
        cells = columns.positions(catchments[link])
        held = labels[cells]
        labels[cells[held == 0]] = label
        for column in dict.fromkeys(cells[held != 0].tolist()):  # overlaps
            key = (int(labels[column]), label)
            if key not in combined:
                combined[key] = len(winner)
                prev = winner[key[0]]
                later = rank[link] > rank[links[prev - 1]]
                winner.append(label if later else prev)
            labels[column] = combined[key]
    return LabelRow(columns, links, labels, np.array(winner))


def _route_row(
    catchments: RouteCatchments, columns: Columns, skip: FrozenSet[LinkId]
) -> Optional[LabelRow]:
    """The label row of a fixpoint's catchments read off ``r_link`` at
    the universe's core indices, each core link index mapped to its
    label; None for an empty universe or one not all in the core."""
    routes = catchments.routes
    core = routes.core
    indices = columns.core_indices(core)
    if indices is None or not len(indices):
        return None
    links = [link for link in catchments if link not in skip]  # sorted
    label_of = np.zeros(len(core.link_ids) + 1, dtype=np.int32)
    for label, link in enumerate(links, start=1):
        label_of[core.link_index[link] + 1] = label
    # A buffer view of the table's typed column (a copy for lists).
    r_link = np.asarray(routes.r_link)[indices]
    return LabelRow(columns, links, label_of[r_link + 1])


class LabelledCatchments(LazyCatchments):
    """A catchment map restricted to a universe that carries its row.

    A plain ``{link: frozenset}`` dict to every reader, with one
    companion, :attr:`row`, its label row.  Built over ``source``, an
    unrestricted map such as a routing outcome's catchments, it holds
    no set until first read: then each catchment is restricted to the
    row's universe, so a map only the row path reads never builds a
    set.  Treat it as read-only.

    Args:
        row: the map's label row.
        source: a map whose catchments, restricted to the row's
            universe, are this map's, in its key order.
        restricted: ``source`` is already restricted; copy it now.
    """

    __slots__ = ("row",)

    def __init__(
        self,
        row: LabelRow,
        source: Mapping[LinkId, Catchment],
        restricted: bool = False,
    ) -> None:
        super().__init__(source, None if restricted else source)
        if restricted:
            dict.update(self, source.items())
        self.row = row

    @classmethod
    def of(
        cls, catchments: Mapping[LinkId, Catchment], columns: Columns
    ) -> "LabelledCatchments":
        """A ``catchments`` map of universe members, labelled."""
        return cls(label_row(catchments, columns), catchments, restricted=True)

    def _build(self, source: Mapping[LinkId, Catchment]):
        members = self.row.columns.members
        return ((link, frozenset(source[link] & members)) for link in source)


class AssignedCatchments(LabelledCatchments):
    """A measured configuration's catchments, held as its label row.

    Built from a source → link assignment over a universe (measured
    catchments are disjoint: one link per source), it writes each
    source's label straight into the row and keeps, besides, the order
    the sources were assigned in.  Its frozensets are built only when
    first read, from the assignment re-read off the row in that order,
    so they are :func:`~repro.measurement.catchment.assignment_to_catchments`
    of the same assignment, down to each set's iteration order.  The
    keys are ``links`` and then any other assigned link, in first-seen
    order.

    Args:
        assignment: source → link, every source a member of ``columns``.
        links: the keys, in order (e.g. the origin's link ids).
        columns: the universe.
    """

    __slots__ = ()

    def __init__(
        self,
        assignment: Mapping[ASN, LinkId],
        links: Iterable[LinkId],
        columns: Columns,
    ) -> None:
        keys = list(dict.fromkeys([*links, *assignment.values()]))
        sorted_links = sorted(keys)
        label_of = {link: label for label, link in enumerate(sorted_links, 1)}
        count = len(assignment)
        column = columns.column
        order = np.fromiter(
            (column[asn] for asn in assignment), dtype=np.int32, count=count
        )
        labels = np.zeros(len(columns), dtype=np.int32)
        labels[order] = np.fromiter(
            (label_of[link] for link in assignment.values()),
            dtype=np.int32, count=count,
        )
        LazyCatchments.__init__(self, keys, order)
        self.row = LabelRow(columns, sorted_links, labels)

    def _build(self, order: np.ndarray):
        row = self.row
        asns = row.columns.asns
        links = row.links
        labels = row.labels.tolist()
        assignment = {
            asns[cell]: links[labels[cell] - 1] for cell in order.tolist()
        }
        return assignment_to_catchments(assignment, list(self)).items()
