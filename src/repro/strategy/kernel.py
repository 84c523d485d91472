"""Array kernel: score every remaining configuration in one pass.

Refining a partition by one configuration's catchments is
order-independent: an AS ends up in the piece of its cluster that holds
exactly the ASes sharing its *set of links* (the links whose catchments
contain it).  So each configuration reduces to one integer label per
universe AS, and refining cluster ``κ`` by configuration ``c`` yields
one piece per distinct ``(cluster label, link-set label)`` pair.
:class:`LabelMatrix` stores those labels as an int32 configs × universe
matrix, and everything the built-in strategies score is a count or a
weighted sum over the pairs:

* split gain (what ``ClusterState.refine_with_catchments`` would
  return) = distinct pairs − clusters, an exact integer;
* weighted cost after refinement = Σ over pieces of volume × size;
* largest piece of a target set = the top label count over its columns.

Split gains and piece sizes are integers, so they match the reference
loops exactly.  Weighted costs are float sums in a different order from
:func:`~repro.strategy.base.weighted_cost`, so :func:`choose_greedy`
re-scores, with the reference scorer, every candidate whose kernel
reduction could tie the best or straddle the noise clamp.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.clustering import ClusterState
from ..core.labels import Columns, label_row
from ..types import ASN, Catchment, LinkId

#: Rows scored per array pass; bounds the kernel's temporaries.
BLOCK_ROWS = 32


class LabelMatrix:
    """Link-set labels of every configuration over one universe.

    Row ``c`` is :func:`~repro.core.labels.label_row` of configuration
    ``c``'s catchment map: cell ``(c, a)`` is 0 when no catchment holds
    AS ``a``, ``k`` when only the ``k``-th link (in sorted link order)
    does, and a further id per distinct set of overlapping links.
    Labels are canonical within a row only; rows are never compared.
    Catchment members outside the universe are ignored, as
    :meth:`ClusterState.refine` ignores them.

    Args:
        catchment_maps: one catchment map per configuration.
        universe: the ASes the matrix has columns for (or their
            :class:`~repro.core.labels.Columns`).
    """

    def __init__(
        self,
        catchment_maps: Sequence[Mapping[LinkId, Catchment]],
        universe: Iterable[ASN],
    ) -> None:
        self._columns = Columns.of(universe)
        self.universe: List[ASN] = self._columns.asns
        labels = np.zeros(
            (len(catchment_maps), len(self.universe)), dtype=np.int32
        )
        for row, maps in zip(labels, catchment_maps):
            row[:] = label_row(maps, self._columns).labels
        self.labels = labels
        self.width = int(labels.max(initial=0)) + 1

    def covers(self, state: ClusterState) -> bool:
        """True when the matrix's columns are exactly ``state``'s universe."""
        return state.columns.same(self._columns)

    def columns(self, asns: Iterable[ASN]) -> np.ndarray:
        """Column indices of the universe members among ``asns``."""
        return self._columns.positions(asns)

    def _pieces(
        self, rows: Sequence[int], clusters: np.ndarray, active: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Each row's pieces over the ``active`` columns, in row blocks.

        Yields, per block of at most :data:`BLOCK_ROWS` rows, the column
        order that sorts each row's ``(cluster, link set)`` keys and a
        mask marking the first key of each piece in that order.  Blocks
        bound the temporary arrays to a few hundred kilobytes.
        """
        rows = np.asarray(rows)
        columns = np.flatnonzero(active)
        base = clusters[active] * self.width
        for start in range(0, len(rows), BLOCK_ROWS):
            block = rows[start:start + BLOCK_ROWS]
            keys = base + self.labels[np.ix_(block, columns)]
            order = np.argsort(keys, axis=1)
            keys = np.take_along_axis(keys, order, axis=1)
            first = np.ones(keys.shape, dtype=bool)
            first[:, 1:] = keys[:, 1:] != keys[:, :-1]
            yield order, first

    def split_gains(
        self, rows: Sequence[int], state: ClusterState
    ) -> np.ndarray:
        """Split gain of each configuration in ``rows`` on ``state``.

        A singleton cluster stays one piece under every configuration,
        so only the columns of larger clusters are keyed.
        """
        clusters = state.ids
        sizes = np.bincount(clusters)
        pieces = [
            np.count_nonzero(first, axis=1)
            for _, first in self._pieces(rows, clusters, sizes[clusters] > 1)
        ]
        return np.concatenate(pieces) - np.count_nonzero(sizes > 1)

    def reductions(
        self,
        rows: Sequence[int],
        state: ClusterState,
        volume_by_as: Mapping[ASN, float],
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Split gains, weighted cost reductions, and the cost before.

        The cost is Σ over clusters of volume × size, as in
        :func:`~repro.strategy.base.weighted_cost`, summed here in
        another order.  Singleton clusters cost the same before and
        after, so as in :meth:`split_gains` only larger ones are keyed.
        """
        volumes = np.fromiter(
            (volume_by_as.get(asn, 0.0) for asn in self.universe),
            dtype=np.float64,
            count=len(self.universe),
        )
        clusters = state.ids
        sizes = np.bincount(clusters)
        cost = np.bincount(clusters, weights=volumes) * sizes
        active = sizes[clusters] > 1
        pieces, after = [], []
        for order, first in self._pieces(rows, clusters, active):
            piece = np.cumsum(first.ravel()) - 1
            piece_volume = np.bincount(
                piece, weights=volumes[active][order].ravel()
            )
            count = np.count_nonzero(first, axis=1)
            pieces.append(count)
            after.append(np.bincount(
                np.repeat(np.arange(len(count)), count),
                weights=piece_volume * np.bincount(piece),
                minlength=len(count),
            ))
        gains = np.concatenate(pieces) - np.count_nonzero(sizes > 1)
        reductions = cost[sizes > 1].sum() - np.concatenate(after)
        return gains, reductions, float(cost.sum())

    def largest_pieces(
        self, rows: Sequence[int], columns: np.ndarray
    ) -> np.ndarray:
        """Size of the largest piece each row cuts the ``columns`` set into."""
        sub = self.labels[np.ix_(np.asarray(rows), columns)]
        offsets = np.arange(len(sub))[:, None] * self.width
        counts = np.bincount(
            (sub + offsets).ravel(), minlength=len(sub) * self.width
        )
        return counts.reshape(len(sub), self.width).max(axis=1)


def best_bisection(
    matrix: LabelMatrix,
    rows: np.ndarray,
    members: Iterable[ASN],
    rank: Optional[np.ndarray] = None,
) -> Optional[int]:
    """The row that cuts ``members`` into the smallest largest piece.

    Rows that leave ``members`` whole are skipped.  Ties break on
    ``rank`` (per row, lower first) ahead of piece size when given, then
    toward the lowest row index.  None when no row splits ``members``.
    """
    columns = matrix.columns(members)
    largest = matrix.largest_pieces(rows, columns)
    splits = largest < len(columns)
    if not splits.any():
        return None
    keys = [rows[splits], largest[splits]]
    if rank is not None:
        keys.append(rank[splits])
    # lexsort sorts by its last key first.
    return int(rows[splits][np.lexsort(keys)[0]])


def best_split(gains: np.ndarray) -> Optional[int]:
    """Position of the first largest split gain; None if nothing splits."""
    best = int(np.argmax(gains))
    return best if gains[best] > 0 else None


def choose_greedy(
    gains: np.ndarray,
    reductions: np.ndarray,
    before: float,
    rescore: Callable[[int], float],
    noise_floor: float,
) -> Optional[int]:
    """Position of the best ``(weighted reduction, split gain)`` score.

    Positions index the candidate arrays.  Ties break toward the lowest
    position; None means no candidate beats ``(0.0, 0)``.

    ``reductions`` are the kernel's.  Let ``thr`` be
    ``noise_floor · max(1, |before|)``, the clamp threshold of
    :func:`~repro.strategy.base.weighted_split_score`.  For finite,
    non-negative volumes, kernel and reference reductions differ only by
    summation order, far less than ``thr``.  So only two kinds of
    candidate need the reference reduction ``rescore(position)``: those
    within ``thr / 2`` of the clamp threshold, and, when more than one
    candidate lies within ``thr`` of the best reduction, those
    candidates.  The rest keep ``0.0`` (well below the clamp) or their
    kernel value (clear of every rival).
    """
    threshold = noise_floor * max(1.0, abs(before))
    split = gains > 0
    clamped = reductions < threshold / 2
    value = np.where(split & ~clamped, reductions, 0.0)
    exact = ~split | clamped

    def settle(positions: np.ndarray) -> None:
        for position in positions:
            if not exact[position]:
                value[position] = rescore(int(position))
                exact[position] = True

    settle(np.flatnonzero(
        split & (np.abs(reductions - threshold) <= threshold / 2)
    ))
    near = np.flatnonzero(value >= value.max() - threshold)
    if len(near) > 1:
        settle(near)
    top = np.flatnonzero(value == value.max())
    best = int(top[np.argmax(gains[top])])
    if value[best] == 0.0 and gains[best] <= 0:
        return None
    return best


def choose_rescored(
    gains: np.ndarray, rescore: Callable[[int], float]
) -> Optional[int]:
    """:func:`choose_greedy` with every splitting candidate re-scored.

    For volumes outside the kernel's error bound (negative or not
    finite); the comparison is the reference loop's tuple comparison.
    """
    best: Optional[int] = None
    best_score: Tuple[float, int] = (0.0, 0)
    for position in np.flatnonzero(gains > 0):
        score = (rescore(int(position)), int(gains[position]))
        if score > best_score:
            best, best_score = int(position), score
    return best
