"""Catchment estimation from BGP and traceroute observations (§IV-c, §IV-d).

Measured catchments disagree with ground truth in three ways the paper
handles explicitly, all reproduced here:

* **Multiple catchments** — an AS can be observed in more than one
  catchment within a configuration (IP-to-AS errors, intra-AS routing
  diversity).  Resolution gives priority to BGP observations over
  traceroute, then takes the most common assignment (§IV-c).
* **Visibility** — a source observed under some configurations may be
  missing under others.  Analysis is limited to sources observed under
  the initial anycast-all configuration, and missing assignments are
  imputed from ``smax``, the source whose catchment the missing source
  shares most often (§IV-d).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple,
)

from ..errors import MeasurementError
from ..types import ASN, LinkId

KIND_BGP = "bgp"
KIND_TRACEROUTE = "traceroute"


@dataclass(frozen=True)
class CatchmentObservation:
    """One (source AS → peering link) observation with its provenance.

    ``weight`` is how many identical observations the row stands for, so
    a caller can hand :func:`resolve_observations` one row per (source,
    link, kind) instead of one per sighting.
    """

    source_as: ASN
    link: LinkId
    kind: str
    weight: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (KIND_BGP, KIND_TRACEROUTE):
            raise MeasurementError(f"unknown observation kind {self.kind!r}")
        if self.weight < 1:
            raise MeasurementError(
                f"observation weight must be positive, got {self.weight}"
            )


@dataclass
class ResolutionStats:
    """Bookkeeping from one configuration's conflict resolution.

    Attributes:
        sources_observed: distinct sources with at least one observation.
        sources_in_multiple_catchments: sources seen on more than one link
            (the paper reports 2.28% on average).
    """

    sources_observed: int = 0
    sources_in_multiple_catchments: int = 0

    @property
    def multi_catchment_fraction(self) -> float:
        """Fraction of observed sources seen in multiple catchments."""
        if not self.sources_observed:
            return 0.0
        return self.sources_in_multiple_catchments / self.sources_observed


def resolve_observations(
    observations: Iterable[CatchmentObservation],
) -> Tuple[Dict[ASN, LinkId], ResolutionStats]:
    """Resolve per-source conflicts into a single catchment assignment.

    BGP observations outrank traceroute ones ("we give higher priority to
    BGP measurements to minimize errors due to IP-to-AS mapping"); among
    observations of the same type, the most common link wins, with ties
    broken by link id for determinism.  A row of weight ``w`` counts as
    ``w`` observations; the assignment lists sources in the order they
    first appear.
    """
    # Per source: (BGP, traceroute) link → count tallies.
    by_source: Dict[ASN, Tuple[Dict[LinkId, int], Dict[LinkId, int]]] = {}
    for obs in observations:
        tallies = by_source.get(obs.source_as)
        if tallies is None:
            tallies = by_source[obs.source_as] = ({}, {})
        tally = tallies[0] if obs.kind == KIND_BGP else tallies[1]
        tally[obs.link] = tally.get(obs.link, 0) + obs.weight

    assignment: Dict[ASN, LinkId] = {}
    stats = ResolutionStats()
    for source, (bgp, traceroute) in by_source.items():
        stats.sources_observed += 1
        if len(bgp.keys() | traceroute.keys()) > 1:
            stats.sources_in_multiple_catchments += 1
        preferred = bgp or traceroute
        if len(preferred) == 1:
            best_link = next(iter(preferred))
        else:
            best_link = min(
                preferred.items(), key=lambda item: (-item[1], item[0])
            )[0]
        assignment[source] = best_link
    return assignment, stats


def assignment_to_catchments(
    assignment: Mapping[ASN, LinkId], links: Iterable[LinkId]
) -> Dict[LinkId, FrozenSet[ASN]]:
    """Invert a source→link assignment into per-link catchment sets."""
    catchments: Dict[LinkId, Set[ASN]] = {link: set() for link in links}
    for source, link in assignment.items():
        catchments.setdefault(link, set()).add(source)
    return {link: frozenset(members) for link, members in catchments.items()}


class CatchmentHistory:
    """Per-configuration catchment assignments with smax imputation.

    Args:
        universe: the analysis universe — the paper fixes it to the
            sources observed under the first anycast-all configuration.
    """

    def __init__(self, universe: Iterable[ASN]) -> None:
        self.universe: FrozenSet[ASN] = frozenset(universe)
        if not self.universe:
            raise MeasurementError("catchment history needs a non-empty universe")
        self._assignments: List[Dict[ASN, LinkId]] = []

    def add(self, assignment: Mapping[ASN, LinkId]) -> None:
        """Record one configuration's assignment (restricted to the universe)."""
        self._assignments.append(
            {
                source: link
                for source, link in assignment.items()
                if source in self.universe
            }
        )

    def __len__(self) -> int:
        return len(self._assignments)

    def missing_sources(self) -> Dict[int, FrozenSet[ASN]]:
        """Per configuration index, universe sources with no assignment."""
        return {
            index: frozenset(self.universe - set(assignment))
            for index, assignment in enumerate(self._assignments)
            if self.universe - set(assignment)
        }

    def smax_of(self, source: ASN) -> Optional[ASN]:
        """The source most frequently sharing a catchment with ``source``.

        Computed across configurations where ``source`` was observed; ties
        break toward the smallest ASN.  Returns None if ``source`` shares
        no catchment with anyone anywhere.
        """
        counts: Counter = Counter()
        for assignment in self._assignments:
            link = assignment.get(source)
            if link is None:
                continue
            for other, other_link in assignment.items():
                if other != source and other_link == link:
                    counts[other] += 1
        if not counts:
            return None
        return min(counts.items(), key=lambda item: (-item[1], item[0]))[0]

    def _link_groups(self) -> List[Dict[LinkId, List[ASN]]]:
        """Per configuration, each link's observed members."""
        groups: List[Dict[LinkId, List[ASN]]] = []
        for assignment in self._assignments:
            by_link: Dict[LinkId, List[ASN]] = defaultdict(list)
            for source, link in assignment.items():
                by_link[link].append(source)
            groups.append(by_link)
        return groups

    def _grouped_smax(
        self, source: ASN, groups: List[Dict[LinkId, List[ASN]]]
    ) -> Optional[ASN]:
        """:meth:`smax_of` from :meth:`_link_groups`: the same counts,
        read off each configuration's group instead of a full scan."""
        counts: Counter = Counter()
        for assignment, by_link in zip(self._assignments, groups):
            link = assignment.get(source)
            if link is not None:
                counts.update(by_link[link])
        del counts[source]
        if not counts:
            return None
        return min(counts.items(), key=lambda item: (-item[1], item[0]))[0]

    def imputed_assignments(self) -> List[Dict[ASN, LinkId]]:
        """Assignments with missing sources imputed via smax (§IV-d).

        For each configuration where a source is missing, it inherits the
        catchment of its smax (when the smax itself was observed there).
        Sources whose smax is also missing stay unassigned for that
        configuration — refinement simply learns nothing about them.
        """
        return list(self.iter_imputed())

    def iter_imputed(self) -> Iterator[Dict[ASN, LinkId]]:
        """:meth:`imputed_assignments`, one configuration at a time, so a
        caller that converts each one holds a single imputed dict."""
        smax_cache: Dict[ASN, Optional[ASN]] = {}
        groups = self._link_groups()
        for assignment in self._assignments:
            filled = dict(assignment)
            for source in self.universe - set(assignment):
                if source not in smax_cache:
                    smax_cache[source] = self._grouped_smax(source, groups)
                smax = smax_cache[source]
                if smax is not None and smax in assignment:
                    filled[source] = assignment[smax]
            yield filled

    def catchment_maps(
        self, links: Iterable[LinkId], imputed: bool = True
    ) -> List[Dict[LinkId, FrozenSet[ASN]]]:
        """Per-configuration catchment maps, optionally smax-imputed."""
        link_list = list(links)
        assignments = (
            self.imputed_assignments() if imputed else self._assignments
        )
        return [
            assignment_to_catchments(assignment, link_list)
            for assignment in assignments
        ]
