"""Synthetic Internet-like AS topology generation.

The paper evaluates on the real Internet (1,885 ASes observed).  Offline,
we substitute a seeded synthetic topology with the structural properties
that matter for catchment behaviour:

* a small transit-free *tier-1 clique* at the top,
* a middle tier of transit providers attached preferentially (heavy-tailed
  degree distribution),
* a large edge of stub ASes, mostly single- or dual-homed,
* settlement-free peering edges concentrated in the middle (IXP-style).

The generator is fully deterministic given a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import TopologyError
from ..types import ASN
from .graph import ASGraph
from .relationships import Relationship


@dataclass(frozen=True)
class TopologyParams:
    """Knobs for :func:`generate_topology`.

    Attributes:
        num_tier1: size of the transit-free clique at the top.
        num_transit: number of middle-tier transit ASes.
        num_stub: number of edge (stub) ASes.
        transit_provider_choices: (min, max) providers per transit AS.
        stub_provider_choices: (min, max) providers per stub AS.
        transit_peering_probability: probability that a pair of same-tier
            transit ASes peer (evaluated over a random sample of pairs).
        stub_multihome_fraction: fraction of stubs homed to two providers.
        seed: PRNG seed; same seed ⇒ identical topology.
    """

    num_tier1: int = 8
    num_transit: int = 120
    num_stub: int = 600
    transit_provider_choices: Sequence[int] = (1, 3)
    stub_provider_choices: Sequence[int] = (1, 2)
    transit_peering_probability: float = 0.08
    stub_multihome_fraction: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tier1 < 1:
            raise TopologyError("need at least one tier-1 AS")
        if self.num_transit < 0 or self.num_stub < 0:
            raise TopologyError("AS counts must be non-negative")
        lo, hi = self.transit_provider_choices
        if not 1 <= lo <= hi:
            raise TopologyError("transit provider choices must satisfy 1 <= min <= max")
        lo, hi = self.stub_provider_choices
        if not 1 <= lo <= hi:
            raise TopologyError("stub provider choices must satisfy 1 <= min <= max")
        if not 0.0 <= self.transit_peering_probability <= 1.0:
            raise TopologyError("transit_peering_probability must be in [0, 1]")
        if not 0.0 <= self.stub_multihome_fraction <= 1.0:
            raise TopologyError("stub_multihome_fraction must be in [0, 1]")

    @property
    def total_ases(self) -> int:
        """Total number of ASes the generated topology will contain."""
        return self.num_tier1 + self.num_transit + self.num_stub


#: First ASN assigned to each tier; gaps make tiers recognizable in debug
#: output but carry no semantics.
TIER1_BASE_ASN = 10
TRANSIT_BASE_ASN = 1000
STUB_BASE_ASN = 10000


@dataclass
class GeneratedTopology:
    """A generated topology plus the tier assignment used to build it."""

    graph: ASGraph
    tier1: List[ASN] = field(default_factory=list)
    transit: List[ASN] = field(default_factory=list)
    stubs: List[ASN] = field(default_factory=list)
    params: Optional[TopologyParams] = None

    @property
    def all_ases(self) -> List[ASN]:
        """All ASes in tier order (tier-1 first)."""
        return self.tier1 + self.transit + self.stubs


def generate_topology(params: Optional[TopologyParams] = None) -> GeneratedTopology:
    """Generate a synthetic Internet-like topology.

    The construction proceeds top-down: the tier-1 clique, then transit
    ASes attached to providers drawn preferentially by current degree
    (yielding a heavy-tailed degree distribution), then stubs attached to
    transit providers.  Peering edges are added between transit ASes.

    Returns:
        A :class:`GeneratedTopology` whose graph passes
        :meth:`ASGraph.validate`.
    """
    params = params or TopologyParams()
    rng = random.Random(params.seed)
    graph = ASGraph()

    tier1 = [TIER1_BASE_ASN + i for i in range(params.num_tier1)]
    for asn in tier1:
        graph.add_as(asn)
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            graph.add_link(a, b, Relationship.PEER)

    transit = [TRANSIT_BASE_ASN + i for i in range(params.num_transit)]
    lo, hi = params.transit_provider_choices
    for asn in transit:
        candidates = tier1 + [t for t in transit if t in graph and t != asn]
        provider_count = min(rng.randint(lo, hi), len(candidates))
        for provider in _preferential_sample(rng, graph, candidates, provider_count):
            graph.add_link(asn, provider, Relationship.PROVIDER)

    _add_transit_peering(rng, graph, transit, params.transit_peering_probability)

    stubs = [STUB_BASE_ASN + i for i in range(params.num_stub)]
    slo, shi = params.stub_provider_choices
    provider_pool = transit if transit else tier1
    for asn in stubs:
        if rng.random() < params.stub_multihome_fraction:
            provider_count = min(max(2, slo), len(provider_pool))
        else:
            provider_count = min(rng.randint(slo, shi), len(provider_pool))
        for provider in _preferential_sample(rng, graph, provider_pool, provider_count):
            graph.add_link(asn, provider, Relationship.PROVIDER)

    graph.validate()
    return GeneratedTopology(
        graph=graph, tier1=tier1, transit=transit, stubs=stubs, params=params
    )


def _preferential_sample(
    rng: random.Random, graph: ASGraph, candidates: Sequence[ASN], count: int
) -> List[ASN]:
    """Sample ``count`` distinct candidates with probability ∝ degree + 1.

    The ``+ 1`` keeps zero-degree ASes reachable; sampling without
    replacement is done by repeated weighted draws over the shrinking pool.
    Links are added only after this returns, so degrees cannot change
    during the draws: the weights are read once and shrink with the pool.
    """
    if count >= len(candidates):
        return list(candidates)
    pool = list(candidates)
    weights = [graph.degree(asn) + 1 for asn in pool]
    chosen: List[ASN] = []
    for _ in range(count):
        pick = rng.choices(range(len(pool)), weights=weights, k=1)[0]
        weights.pop(pick)
        chosen.append(pool.pop(pick))
    return chosen


def _add_transit_peering(
    rng: random.Random, graph: ASGraph, transit: Sequence[ASN], probability: float
) -> None:
    """Add IXP-style peering edges between transit ASes.

    Each unordered pair peers independently with ``probability``, unless a
    transit link between them already exists.
    """
    if probability <= 0.0:
        return
    for i, a in enumerate(transit):
        for b in transit[i + 1:]:
            if graph.has_link(a, b):
                continue
            if rng.random() < probability:
                graph.add_link(a, b, Relationship.PEER)
