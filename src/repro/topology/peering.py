"""The origin network: a PEERING-like multi-homed AS.

The paper announces prefixes from the PEERING research testbed (AS47065),
which has points of presence ("muxes") each connected to one transit
provider (Table I).  :class:`OriginNetwork` models exactly that: an origin
AS attached to a set of named peering links, each toward one provider AS
in the topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..types import ASN, LinkId
from .generator import GeneratedTopology
from .graph import ASGraph
from .relationships import Relationship

#: PEERING's AS number, used as the default origin ASN.
PEERING_ASN = 47065

#: Table I of the paper: mux name → (transit provider name, provider ASN).
PAPER_MUXES: Tuple[Tuple[str, str, ASN], ...] = (
    ("AMS-IX", "Bit BV", 12859),
    ("GRNet", "GRNet", 5408),
    ("USC/ISI", "Los Nettos", 226),
    ("NEU", "Northeastern University", 156),
    ("Seattle-IX", "RGnet", 3130),
    ("UFMG", "RNP", 1916),
    ("UW", "Pacific Northwest GigaPoP", 101),
)


@dataclass(frozen=True)
class PeeringLink:
    """One peering link ("mux" + provider) of the origin network.

    Attributes:
        link_id: stable identifier used in announcement configurations.
        provider: ASN of the transit provider on the far side.
        provider_name: human-readable provider name (for reporting).
    """

    link_id: LinkId
    provider: ASN
    provider_name: str = ""


class OriginNetwork:
    """A multi-homed origin AS with named peering links.

    This is the network deploying the paper's techniques: it controls
    which links announce the prefix, with what prepending, and with which
    poisoned ASes.
    """

    def __init__(self, asn: ASN, links: Sequence[PeeringLink]) -> None:
        if not links:
            raise TopologyError("origin network needs at least one peering link")
        link_ids = [link.link_id for link in links]
        if len(set(link_ids)) != len(link_ids):
            raise TopologyError(f"duplicate peering link ids: {link_ids}")
        providers = [link.provider for link in links]
        if len(set(providers)) != len(providers):
            raise TopologyError(
                "each peering link must use a distinct provider AS"
            )
        self.asn = asn
        self._links: Dict[LinkId, PeeringLink] = {
            link.link_id: link for link in links
        }
        self._link_id_of_provider: Dict[ASN, LinkId] = {
            link.provider: link.link_id for link in links
        }

    @property
    def link_ids(self) -> List[LinkId]:
        """All peering link ids, sorted for determinism."""
        return sorted(self._links)

    @property
    def links(self) -> List[PeeringLink]:
        """All peering links, sorted by link id."""
        return [self._links[link_id] for link_id in self.link_ids]

    def link(self, link_id: LinkId) -> PeeringLink:
        """Look up a peering link by id.

        Raises:
            TopologyError: if the link id is unknown.
        """
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown peering link {link_id!r}") from None

    def provider_of(self, link_id: LinkId) -> ASN:
        """Provider ASN behind ``link_id``."""
        return self.link(link_id).provider

    def link_toward_provider(self, provider: ASN) -> PeeringLink:
        """Peering link whose provider is ``provider``.

        Raises:
            TopologyError: if no link uses that provider.
        """
        link_id = self.link_id_toward(provider)
        if link_id is None:
            raise TopologyError(f"no peering link toward provider AS {provider}")
        return self._links[link_id]

    def link_id_toward(self, provider: ASN) -> Optional[LinkId]:
        """Id of the peering link whose provider is ``provider``, or None."""
        return self._link_id_of_provider.get(provider)

    def __len__(self) -> int:
        return len(self._links)


def attach_origin(
    topology: GeneratedTopology,
    origin_asn: ASN = PEERING_ASN,
    num_links: int = 7,
    seed: int = 0,
) -> OriginNetwork:
    """Attach a PEERING-like origin AS to a generated topology.

    Providers are chosen among transit-tier ASes, spread across the degree
    distribution (a mix of well-connected and modest providers, like the
    paper's mix of NRENs and IXP members), and the origin is linked to
    each as its customer.  Link ids reuse the paper's mux names when seven
    or fewer links are requested.

    Args:
        topology: the generated topology to attach to (mutated in place).
        origin_asn: ASN for the origin (defaults to PEERING's AS47065).
        num_links: number of peering links to create.
        seed: PRNG seed for provider selection.

    Returns:
        The attached :class:`OriginNetwork`.

    Raises:
        TopologyError: if the topology lacks enough distinct providers or
            the origin ASN already exists in the graph.
    """
    graph = topology.graph
    if origin_asn in graph:
        raise TopologyError(f"origin ASN {origin_asn} already present in topology")
    pool = list(topology.transit) or list(topology.tier1)
    if num_links > len(pool):
        raise TopologyError(
            f"requested {num_links} peering links but only {len(pool)} candidate providers"
        )
    providers = _spread_sample(graph, pool, num_links, random.Random(seed))

    links = []
    for index, provider in enumerate(providers):
        if index < len(PAPER_MUXES):
            mux_name, provider_name, _ = PAPER_MUXES[index]
        else:
            mux_name, provider_name = f"mux{index:02d}", f"Provider{index:02d}"
        links.append(
            PeeringLink(link_id=mux_name, provider=provider, provider_name=provider_name)
        )
        graph.add_link(origin_asn, provider, Relationship.PROVIDER)
    return OriginNetwork(origin_asn, links)


def _spread_sample(
    graph: ASGraph, pool: Sequence[ASN], count: int, rng: random.Random
) -> List[ASN]:
    """Pick ``count`` providers spread across the degree distribution.

    The pool is sorted by degree and divided into ``count`` equal slices;
    one provider is drawn uniformly from each slice.  This mirrors the
    paper's provider mix and guarantees catchment diversity (all-high-degree
    providers would shadow each other).
    """
    ranked = sorted(pool, key=lambda asn: (graph.degree(asn), asn))
    slices = [
        ranked[(i * len(ranked)) // count : ((i + 1) * len(ranked)) // count]
        for i in range(count)
    ]
    return [rng.choice(chunk) for chunk in slices if chunk]
