"""Reference cluster refinement: the per-AS dict/set partition.

This is the executable specification of §III-B refinement that
:class:`repro.core.clustering.ClusterState` runs on link-label arrays.
It lives with the tests because nothing at runtime needs it:
``test_clustering.py`` holds the array partition to it on seeded random
catchment maps — split counts, clusters, sizes and statistics, and
copies — including overlapping catchments, members outside
the universe and degraded links.

Each catchment splits every cluster it partly overlaps into the part
inside and the part outside, one catchment at a time, in sorted link
order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Set

from repro.errors import ClusteringError
from repro.types import ASN, LinkId


class ReferenceClusterState:
    """Mutable partition of a fixed universe of sources.

    Args:
        universe: the sources to partition.  The paper fixes this to the
            ASes observed under the initial anycast-all configuration
            (§IV-d); sources outside the universe are ignored by
            :meth:`refine`.
    """

    def __init__(self, universe: Iterable[ASN]) -> None:
        members = set(universe)
        if not members:
            raise ClusteringError("cluster universe must be non-empty")
        self._clusters: Dict[int, Set[ASN]] = {0: members}
        self._cluster_of: Dict[ASN, int] = {asn: 0 for asn in members}
        self._next_id = 1

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------

    def refine(self, catchment: Iterable[ASN]) -> int:
        """Split clusters against one catchment; return the number of splits.

        For each cluster κ overlapping the catchment α, replace κ with
        κ∩α and κ∖α (no-op when κ ⊆ α or κ∩α is empty).
        """
        inside = {asn for asn in catchment if asn in self._cluster_of}
        if not inside:
            return 0
        affected: Dict[int, Set[ASN]] = {}
        for asn in inside:
            affected.setdefault(self._cluster_of[asn], set()).add(asn)
        splits = 0
        for cluster_id, overlap in affected.items():
            cluster = self._clusters[cluster_id]
            if len(overlap) == len(cluster):
                continue  # κ ⊆ α: no information
            cluster -= overlap
            new_id = self._next_id
            self._next_id += 1
            self._clusters[new_id] = overlap
            for asn in overlap:
                self._cluster_of[asn] = new_id
            splits += 1
        return splits

    def refine_with_catchments(
        self,
        catchments: Mapping[LinkId, Iterable[ASN]],
        degraded_links: Iterable[LinkId] = (),
    ) -> int:
        """Refine against every catchment of one configuration.

        Links listed in ``degraded_links`` are *skipped*: their
        catchments are known to be partial (measurement loss), and a
        partial catchment would split off sources that merely went
        unmeasured.  Skipping degrades gracefully — clusters stay wider
        than they could be, but never become wrong.
        """
        skip = frozenset(degraded_links)
        splits = 0
        for link in sorted(catchments):
            if link in skip:
                continue
            splits += self.refine(catchments[link])
        return splits

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def universe(self) -> FrozenSet[ASN]:
        """The full set of partitioned sources."""
        return frozenset(self._cluster_of)

    def clusters(self) -> List[FrozenSet[ASN]]:
        """Current clusters, largest first (ties broken by smallest member)."""
        return sorted(
            (frozenset(cluster) for cluster in self._clusters.values()),
            key=lambda cluster: (-len(cluster), min(cluster)),
        )

    def cluster_of(self, asn: ASN) -> FrozenSet[ASN]:
        """The cluster containing ``asn``.

        Raises:
            ClusteringError: if ``asn`` is not in the universe.
        """
        try:
            cluster_id = self._cluster_of[asn]
        except KeyError:
            raise ClusteringError(f"AS {asn} not in cluster universe") from None
        return frozenset(self._clusters[cluster_id])

    def num_clusters(self) -> int:
        """Number of clusters in the current partition."""
        return len(self._clusters)

    def sizes(self) -> List[int]:
        """Cluster sizes in descending order."""
        return sorted((len(c) for c in self._clusters.values()), reverse=True)

    def mean_size(self) -> float:
        """Mean cluster size (per cluster): |universe| / #clusters."""
        return len(self._cluster_of) / len(self._clusters)

    def mean_size_weighted(self) -> float:
        """AS-weighted mean cluster size (the average AS's cluster size).

        This is the metric behind the paper's Figure 7 phrasing "ASes ...
        are in clusters with N ASes on average".
        """
        total = sum(len(c) ** 2 for c in self._clusters.values())
        return total / len(self._cluster_of)

    def size_percentile(self, percentile: float) -> float:
        """Percentile of cluster sizes (linear interpolation, 0–100)."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(len(c) for c in self._clusters.values())
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
        singles = sum(1 for c in self._clusters.values() if len(c) == 1)
        return singles / len(self._clusters)

    def copy(self) -> "ReferenceClusterState":
        """Independent copy of the current partition."""
        clone = ReferenceClusterState.__new__(ReferenceClusterState)
        clone._clusters = {cid: set(c) for cid, c in self._clusters.items()}
        clone._cluster_of = dict(self._cluster_of)
        clone._next_id = self._next_id
        return clone
