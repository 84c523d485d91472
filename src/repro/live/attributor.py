"""Incremental attribution: live clusters + rolling volume re-scoring.

The batch pipeline refines clusters only after the whole schedule ran and
solves the volume system once.  :class:`LiveAttributor` maintains the same
state *online*: each applied configuration refines the partition
immediately, each accepted observation window accumulates per-link
volume against the configuration that was active,
and :meth:`attribution` re-solves the NNLS system on demand over whatever
has been observed so far.  Because refinement only ever splits clusters,
the rolling partition tightens monotonically; because per-configuration
volumes are normalized by *offered* volume, dropped windows shrink
confidence but never bias the estimates.  A read re-solves only when
something changed since the last solve (a configuration applied, a window
accumulated, a remeasurement); otherwise it serves the cached result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
)

from ..core.clustering import ClusterState
from ..core.localization import LocalizationResult, SpoofLocalizer
from ..errors import LiveServiceError
from ..types import ASN, Catchment, LinkId


@dataclass
class ConfigObservations:
    """Volume evidence accumulated while one configuration was active.

    Attributes:
        catchments: its catchment map restricted to the universe.
        volumes: per-link volume summed over accepted windows.
        offered_volume: total volume the sources originated across those
            windows (attributed + unattributed), the normalizer that makes
            rolling estimates comparable to the batch pipeline's
            unit-volume observations.
        degraded: links whose catchments are partial; refinement skips
            them, and a configuration with any is left out of the
            solves.

    Only ``volumes`` and ``offered_volume`` are checkpointed; the
    service re-derives ``catchments`` and ``degraded`` from its evidence.
    """

    catchments: Mapping[LinkId, Catchment]
    volumes: Dict[LinkId, float] = field(default_factory=dict)
    offered_volume: float = 0.0
    degraded: FrozenSet[LinkId] = frozenset()

    def normalized_volumes(self) -> Dict[LinkId, float]:
        """Per-link volume fractions of the offered volume."""
        if self.offered_volume <= 0:
            return {link: 0.0 for link in self.catchments}
        volumes = {link: 0.0 for link in self.catchments}
        for link, volume in self.volumes.items():
            volumes[link] = volume / self.offered_volume
        return volumes


class LiveAttributor:
    """Maintains live clusters and re-scores volumes incrementally.

    Args:
        universe: sources under analysis (the paper's §IV-d rule: ASes
            covered by the first anycast configuration).
    """

    def __init__(self, universe: Iterable[ASN]) -> None:
        self.universe: FrozenSet[ASN] = frozenset(universe)
        if not self.universe:
            raise LiveServiceError("attributor universe must be non-empty")
        self.state = ClusterState(self.universe)
        self.observations: List[ConfigObservations] = []
        self._cached: Optional[LocalizationResult] = None
        #: Evidence changed since the last solve (config applied, window
        #: accumulated, remeasurement): the next read must re-solve.
        self._dirty = True
        #: Number of NNLS solves actually run (deterministic for a given
        #: read pattern).
        self.solves = 0

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    @property
    def configs_applied(self) -> int:
        """Configurations whose catchments have refined the partition."""
        return len(self.observations)

    def apply_config(
        self,
        catchments: Mapping[LinkId, Catchment],
        degraded: FrozenSet[LinkId] = frozenset(),
    ) -> int:
        """Refine clusters with a newly deployed configuration's map.

        ``catchments`` is restricted to the universe (an ``Evidence``
        map, kept as given) and ``degraded`` names its partial links.
        Returns the number of cluster splits the refinement produced.
        Subsequent :meth:`observe` calls accumulate against this
        configuration until the next one is applied.
        """
        splits = self.state.refine_with_catchments(catchments, degraded)
        self.observations.append(
            ConfigObservations(catchments=catchments, degraded=degraded)
        )
        self._dirty = True
        return splits

    def observe(
        self, volumes: Mapping[LinkId, float], offered_volume: float
    ) -> None:
        """Accumulate one accepted window against the active configuration.

        Raises:
            LiveServiceError: before any configuration was applied.
        """
        if not self.observations:
            raise LiveServiceError(
                "observed traffic before any configuration was applied"
            )
        current = self.observations[-1]
        for link, volume in volumes.items():
            current.volumes[link] = current.volumes.get(link, 0.0) + volume
        current.offered_volume += offered_volume
        self._dirty = True

    # ------------------------------------------------------------------
    # Rolling outputs
    # ------------------------------------------------------------------

    def clusters(self) -> List[FrozenSet[ASN]]:
        """Current partition, largest cluster first."""
        return self.state.clusters()

    def attribution(self, force: bool = False) -> Optional[LocalizationResult]:
        """Re-solve the volume system over everything observed so far.

        Only configurations with at least one accepted window and no
        degraded link contribute rows (a configuration whose every window
        was dropped carries no evidence, and a partial catchment can
        straddle clusters).  Returns None until some traffic has been
        observed.  Nothing changed since the last solve serves the cached
        result, unless ``force`` (used for final reports).
        """
        if not (force or self._dirty):
            return self._cached
        observed = [
            obs for obs in self.observations
            if obs.offered_volume > 0 and not obs.degraded
        ]
        if not observed:
            self._cached = None
            self._dirty = False
            return None
        localizer = SpoofLocalizer(
            self.state.clusters(), [obs.catchments for obs in observed]
        )
        self._cached = localizer.localize(
            [obs.normalized_volumes() for obs in observed]
        )
        self._dirty = False
        self.solves += 1
        return self._cached

    def attribution_entropy(self) -> float:
        """Shannon entropy (bits) of the estimated cluster-volume shares.

        High entropy = volume spread over many clusters (we know little);
        0.0 = all estimated volume in one cluster, or nothing observed
        yet.  The controller short-circuits on low entropy.
        """
        result = self.attribution()
        if result is None:
            return 0.0
        shares = [
            cluster.estimated_volume
            for cluster in result.ranked
            if cluster.estimated_volume > 0
        ]
        total = sum(shares)
        if total <= 0 or len(shares) < 2:
            return 0.0
        return -sum(
            (share / total) * math.log2(share / total) for share in shares
        )

    def volume_by_as(self) -> Dict[ASN, float]:
        """Estimated per-AS volume: each cluster's estimate spread evenly.

        This is the weighting the volume-aware controller uses to decide
        which clusters are worth splitting next.
        """
        result = self.attribution()
        estimates: Dict[ASN, float] = {}
        if result is None:
            return estimates
        for cluster in result.ranked:
            if cluster.estimated_volume <= 0:
                continue
            share = cluster.estimated_volume / cluster.size
            for asn in cluster.members:
                estimates[asn] = share
        return estimates

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def rebuild_catchments(
        self,
        histories: List[Mapping[LinkId, Catchment]],
        degraded: Optional[Sequence[FrozenSet[LinkId]]] = None,
    ) -> None:
        """Swap in fresh catchment maps after a remeasurement.

        The partition is recomputed from scratch over the new maps (one
        per applied configuration, restricted to the universe, with its
        degraded links in ``degraded``) while every volume observation
        is kept — the evidence was real, only the stale maps it was
        interpreted against changed.

        Raises:
            LiveServiceError: when map count disagrees with the number of
                applied configurations.
        """
        if len(histories) != len(self.observations):
            raise LiveServiceError(
                f"{len(histories)} remeasured maps for "
                f"{len(self.observations)} applied configurations"
            )
        if degraded is None:
            degraded = [frozenset()] * len(histories)
        self.state = ClusterState(self.universe)
        for obs, catchments, lost in zip(
            self.observations, histories, degraded
        ):
            obs.catchments = catchments
            obs.degraded = lost
            self.state.refine_with_catchments(catchments, lost)
        self._dirty = True

    def as_serializable(self) -> Dict:
        """JSON-safe dump of the observed volume evidence.

        Catchment maps and the partition are derived state: they are not
        stored, and :meth:`from_serializable` rebuilds them.
        """
        return {
            "observations": [
                {
                    "volumes": {
                        link: volume
                        for link, volume in sorted(obs.volumes.items())
                    },
                    "offered_volume": obs.offered_volume,
                }
                for obs in self.observations
            ],
        }

    @classmethod
    def from_serializable(
        cls,
        payload: Mapping,
        universe: Iterable[ASN],
        histories: List[Mapping[LinkId, Catchment]],
        degraded: Sequence[FrozenSet[LinkId]],
    ) -> "LiveAttributor":
        """Rebuild an attributor dumped by :meth:`as_serializable`.

        ``histories`` and ``degraded`` are the current maps of the
        applied configurations, as :meth:`rebuild_catchments` takes
        them; the partition is refined from them afresh.
        """
        attributor = cls(universe)
        attributor.observations = [
            ConfigObservations(
                catchments={},
                volumes=dict(entry["volumes"]),
                offered_volume=entry["offered_volume"],
            )
            for entry in payload["observations"]
        ]
        attributor.rebuild_catchments(histories, degraded)
        return attributor
