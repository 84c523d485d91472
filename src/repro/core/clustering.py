"""Cluster refinement by catchment intersection (paper §III-B).

A *cluster* is a set of sources that fell in the same catchment in every
announcement configuration deployed so far.  Starting from one cluster
holding every source, each observed catchment α splits any overlapping
cluster κ into κ∩α and κ∖α.  Small clusters are the goal: they localize
spoofed-traffic sources precisely enough for targeted intervention.

:class:`ClusterState` implements the refinement incrementally so
schedulers can interleave "deploy a configuration" and "inspect cluster
sizes" (Figures 4, 5, 8 of the paper all need per-step sizes).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Mapping

import numpy as np

from ..errors import ClusteringError
from ..types import ASN, LinkId
from .labels import Columns, label_row


class ClusterState:
    """Mutable partition of a fixed universe of sources.

    The partition is one dense cluster id per universe AS, in sorted
    universe order (:attr:`ids`).  Refining by a configuration splits
    every cluster by the configuration's link labels
    (:func:`~repro.core.labels.label_row`) in one ``np.unique``.

    Args:
        universe: the sources to partition (or their
            :class:`~repro.core.labels.Columns`).  The paper fixes this
            to the ASes observed under the initial anycast-all
            configuration (§IV-d); sources outside the universe are
            ignored by :meth:`refine`.
    """

    def __init__(self, universe: Iterable[ASN]) -> None:
        columns = Columns.of(universe)
        if not len(columns):
            raise ClusteringError("cluster universe must be non-empty")
        self.columns = columns
        self.ids = np.zeros(len(columns), dtype=np.int64)
        self._count = 1

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------

    def _split(self, labels: np.ndarray) -> int:
        """Split every cluster by ``labels``; return the clusters added.

        Keys ``id · width + label`` are distinct exactly per (cluster,
        label) pair, and ``np.unique`` numbers them densely.
        """
        width = int(labels.max()) + 1
        if width == 1:
            return 0
        before = self._count
        keys, self.ids = np.unique(
            self.ids * width + labels, return_inverse=True
        )
        self._count = len(keys)
        return self._count - before

    def refine(self, catchment: Iterable[ASN]) -> int:
        """Split clusters against one catchment; return the number of splits.

        For each cluster κ overlapping the catchment α, replace κ with
        κ∩α and κ∖α (no-op when κ ⊆ α or κ∩α is empty).
        """
        labels = np.zeros(len(self.columns), dtype=np.int32)
        labels[self.columns.positions(catchment)] = 1
        return self._split(labels)

    def refine_with_catchments(
        self,
        catchments: Mapping[LinkId, Iterable[ASN]],
        degraded_links: Iterable[LinkId] = (),
    ) -> int:
        """Refine against every catchment of one configuration.

        Returns the number of splits, which is what refining by each
        catchment in turn would count: the clusters added.

        Links listed in ``degraded_links`` are *skipped*: their
        catchments are known to be partial (measurement loss), and a
        partial catchment would split off sources that merely went
        unmeasured.  Skipping degrades gracefully — clusters stay wider
        than they could be, but never become wrong.
        """
        return self._split(
            label_row(catchments, self.columns, degraded_links).labels
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def universe(self) -> FrozenSet[ASN]:
        """The full set of partitioned sources."""
        return self.columns.members

    def _sizes(self) -> np.ndarray:
        return np.bincount(self.ids, minlength=self._count)

    def clusters(self) -> List[FrozenSet[ASN]]:
        """Current clusters, largest first (ties broken by smallest member)."""
        order = np.argsort(self.ids, kind="stable")
        members = self.columns.array[order].tolist()
        ends = np.cumsum(self._sizes()).tolist()
        starts = [0] + ends[:-1]
        # Columns are sorted, so each cluster's first member is its
        # smallest.
        ranked = sorted(
            range(self._count),
            key=lambda c: (starts[c] - ends[c], members[starts[c]]),
        )
        # Copying through a set sizes each frozenset's table by its
        # member count, which keeps the iteration order that float sums
        # such as ``weighted_cost`` follow close to a set-built cluster's.
        return [frozenset(set(members[starts[c]:ends[c]])) for c in ranked]

    def cluster_of(self, asn: ASN) -> FrozenSet[ASN]:
        """The cluster containing ``asn``.

        Raises:
            ClusteringError: if ``asn`` is not in the universe.
        """
        column = self.columns.column.get(asn)
        if column is None:
            raise ClusteringError(f"AS {asn} not in cluster universe")
        inside = self.ids == self.ids[column]
        return frozenset(self.columns.array[inside].tolist())

    def num_clusters(self) -> int:
        """Number of clusters in the current partition."""
        return self._count

    def sizes(self) -> List[int]:
        """Cluster sizes in descending order."""
        return sorted(self._sizes().tolist(), reverse=True)

    def mean_size(self) -> float:
        """Mean cluster size (per cluster): |universe| / #clusters."""
        return len(self.columns) / self._count

    def mean_size_weighted(self) -> float:
        """AS-weighted mean cluster size (the average AS's cluster size).

        This is the metric behind the paper's Figure 7 phrasing "ASes ...
        are in clusters with N ASes on average".
        """
        sizes = self._sizes()
        return int(sizes @ sizes) / len(self.columns)

    def size_percentile(self, percentile: float) -> float:
        """Percentile of cluster sizes (linear interpolation, 0–100)."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = np.sort(self._sizes()).tolist()
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (percentile / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        if ordered[low] == ordered[high]:
            return float(ordered[low])
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def singleton_fraction(self) -> float:
        """Fraction of clusters containing exactly one source."""
        return int(np.count_nonzero(self._sizes() == 1)) / self._count

    def copy(self) -> "ClusterState":
        """Independent copy of the current partition."""
        clone = ClusterState.__new__(ClusterState)
        clone.columns = self.columns
        clone.ids = self.ids.copy()
        clone._count = self._count
        return clone


def clusters_from_catchment_history(
    universe: Iterable[ASN],
    history: Iterable[Mapping[LinkId, Iterable[ASN]]],
) -> ClusterState:
    """Build the final partition from a sequence of configuration catchments.

    Convenience wrapper over :class:`ClusterState` used by the figure
    runners when only the end state matters.
    """
    state = ClusterState(universe)
    for catchments in history:
        state.refine_with_catchments(catchments)
    return state
