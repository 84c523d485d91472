"""Attribution of spoofed traffic to clusters (paper §III-C, §V-D).

Per configuration, the origin observes only *per-link* spoofed volumes.
Every cluster lies entirely inside one catchment of every configuration
(that is what defines a cluster), so the observations form a linear
system::

    volume(link ℓ, config c) = Σ over clusters κ ⊆ catchment(ℓ, c) of volume(κ)

With enough configurations the system pins down per-cluster volumes.
:func:`estimate_cluster_volumes` solves it with non-negative least squares,
and :class:`SpoofLocalizer` wraps the workflow: rank clusters by estimated
volume and report how precisely the true sources were localized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from ..errors import ClusteringError
from ..spoof.sources import SourcePlacement
from ..types import ASN, Catchment, LinkId
from .labels import Columns, LabelledCatchments, label_row


@dataclass(frozen=True)
class RankedCluster:
    """A cluster with its estimated share of the spoofed traffic."""

    members: FrozenSet[ASN]
    estimated_volume: float

    @property
    def size(self) -> int:
        """Number of ASes in the cluster."""
        return len(self.members)


@dataclass
class LocalizationResult:
    """Outcome of attributing spoofed volume to clusters.

    Attributes:
        ranked: clusters by descending estimated volume.
        residual: least-squares residual of the volume system (how well
            the observations are explained).
    """

    ranked: List[RankedCluster]
    residual: float

    def top(self, count: int = 5) -> List[RankedCluster]:
        """The ``count`` most-suspect clusters."""
        return self.ranked[:count]

    def suspect_ases(self, volume_fraction: float = 0.95) -> FrozenSet[ASN]:
        """Smallest set of clusters' members covering the volume fraction."""
        if not 0.0 < volume_fraction <= 1.0:
            raise ValueError("volume_fraction must be in (0, 1]")
        total = sum(cluster.estimated_volume for cluster in self.ranked)
        if total <= 0.0:
            return frozenset()
        members: set = set()
        covered = 0.0
        for cluster in self.ranked:
            if covered >= volume_fraction * total:
                break
            members.update(cluster.members)
            covered += cluster.estimated_volume
        return frozenset(members)

    def evaluate_against(self, placement: SourcePlacement) -> "LocalizationQuality":
        """Score the result against the ground-truth placement."""
        suspects = self.suspect_ases()
        true_sources = placement.spoofing_ases
        found = true_sources & suspects
        return LocalizationQuality(
            true_sources=len(true_sources),
            sources_found=len(found),
            suspect_set_size=len(suspects),
        )


@dataclass(frozen=True)
class LocalizationQuality:
    """How well localization pinned down the true sources.

    Attributes:
        true_sources: number of ASes actually hosting spoofers.
        sources_found: true source ASes inside the suspect set.
        suspect_set_size: total ASes flagged as suspects.
    """

    true_sources: int
    sources_found: int
    suspect_set_size: int

    @property
    def recall(self) -> float:
        """Fraction of true source ASes captured by the suspect set."""
        return self.sources_found / self.true_sources if self.true_sources else 1.0

    @property
    def precision(self) -> float:
        """Fraction of suspect ASes that truly host sources."""
        if not self.suspect_set_size:
            return 1.0 if not self.true_sources else 0.0
        return self.sources_found / self.suspect_set_size


def estimate_cluster_volumes(
    clusters: Sequence[FrozenSet[ASN]],
    catchment_history: Sequence[Mapping[LinkId, Catchment]],
    volume_history: Sequence[Mapping[LinkId, float]],
) -> Tuple[List[float], float]:
    """Solve the per-cluster volume system with non-negative least squares.

    Args:
        clusters: the final partition.
        catchment_history: per configuration, the catchment map.
        volume_history: per configuration, observed per-link spoofed volume.

    Returns:
        (per-cluster volume estimates aligned with ``clusters``, residual).

    Raises:
        ClusteringError: when histories disagree in length, there is
            nothing to attribute (no clusters or no volume observations),
            or a cluster straddles a catchment boundary (not a true
            cluster).
    """
    if len(catchment_history) != len(volume_history):
        raise ClusteringError(
            f"{len(catchment_history)} catchment maps vs "
            f"{len(volume_history)} volume observations"
        )
    if not clusters:
        raise ClusteringError("no clusters to attribute volume to")

    # A cluster's column is 1.0 in the row of the link that the label
    # of its representative (its minimum) names; clusters must not
    # straddle catchments, which is checked cheaply against its maximum,
    # a member other than the representative in every multi-member
    # cluster.  A probe in no catchment does not straddle.  Evidence
    # maps carry their label rows; any other map is labelled over the
    # representatives and probes.
    representative = [min(cluster) for cluster in clusters]
    probe = [max(cluster) for cluster in clusters]
    num_rows = sum(len(volumes) for volumes in volume_history)
    if not num_rows:
        raise ClusteringError("no volume observations to attribute")
    matrix = np.zeros((num_rows, len(clusters)))
    rhs: List[float] = []
    own = None
    cells: Dict[Columns, Tuple[np.ndarray, np.ndarray]] = {}
    for catchments, volumes in zip(catchment_history, volume_history):
        if isinstance(catchments, LabelledCatchments):
            columns = catchments.row.columns
        else:
            if own is None:
                own = Columns(representative + probe)
            columns = own
        if columns not in cells:
            # Members outside the universe read the sentinel column n,
            # which holds label 0.
            lookup, n = columns.column, len(columns)
            cells[columns] = (
                np.array([lookup.get(asn, n) for asn in representative]),
                np.array([lookup.get(asn, n) for asn in probe]),
            )
        rep_cols, probe_cols = cells[columns]
        row = label_row(catchments, columns)
        labels = np.append(row.labels, 0)
        rep_link = row.winner[labels[rep_cols]]
        probe_link = row.winner[labels[probe_cols]]
        links = sorted(volumes)
        base = len(rhs)
        row_of = {link: base + r for r, link in enumerate(links)}
        link_row = np.array([-1] + [row_of.get(link, -1) for link in row.links])
        rows = link_row[rep_link]
        inside = rows >= 0
        straddlers = np.flatnonzero(
            inside & (probe_link != 0) & (probe_link != rep_link)
        )
        if len(straddlers):
            # Name the first straddler in row-major order.
            col = straddlers[np.argmin(rows[straddlers])]
            raise ClusteringError(
                f"cluster containing AS {representative[col]} straddles "
                f"catchments of link {links[rows[col] - base]!r}"
            )
        cols = np.flatnonzero(inside)
        matrix[rows[cols], cols] = 1.0
        rhs.extend(volumes[link] for link in links)

    target = np.array(rhs, dtype=float)
    solution, residual = nnls(matrix, target)
    return solution.tolist(), float(residual)


class SpoofLocalizer:
    """Ranks clusters by estimated spoofed volume."""

    def __init__(
        self,
        clusters: Sequence[FrozenSet[ASN]],
        catchment_history: Sequence[Mapping[LinkId, Catchment]],
    ) -> None:
        self.clusters = list(clusters)
        self.catchment_history = list(catchment_history)

    def localize(
        self, volume_history: Sequence[Mapping[LinkId, float]]
    ) -> LocalizationResult:
        """Attribute observed volumes and rank clusters."""
        volumes, residual = estimate_cluster_volumes(
            self.clusters, self.catchment_history, volume_history
        )
        ranked = sorted(
            (
                RankedCluster(members=cluster, estimated_volume=volume)
                for cluster, volume in zip(self.clusters, volumes)
            ),
            key=lambda item: (-item.estimated_volume, item.size),
        )
        return LocalizationResult(ranked=ranked, residual=residual)


def traffic_fraction_by_cluster_size(
    placement: SourcePlacement,
    clusters: Sequence[FrozenSet[ASN]],
    max_size: Optional[int] = None,
) -> Dict[int, float]:
    """Cumulative fraction of spoofed volume in clusters up to each size.

    This is the paper's Figure 10 metric: for each cluster size s, the
    fraction of total spoofed traffic originated by ASes living in
    clusters of size ≤ s.
    """
    volume_by_as = placement.volume_by_as(1.0)
    volume_by_size: Dict[int, float] = {}
    for cluster in clusters:
        volume = sum(volume_by_as.get(asn, 0.0) for asn in cluster)
        if volume:
            size = len(cluster)
            volume_by_size[size] = volume_by_size.get(size, 0.0) + volume
    total = sum(volume_by_size.values())
    limit = max_size if max_size is not None else max(volume_by_size, default=1)
    cumulative: Dict[int, float] = {}
    running = 0.0
    for size in range(1, limit + 1):
        running += volume_by_size.get(size, 0.0)
        cumulative[size] = running / total if total else 0.0
    return cumulative
