"""Spoofed traffic generation and per-link volume observation.

The origin cannot see which AS originated a spoofed packet — only which
peering link it arrived on (§I).  This module generates spoofed packet
streams from a :class:`~repro.spoof.sources.SourcePlacement`, routes them
to links using a configuration's catchments, and produces the per-link
volume observations the localization pipeline consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from ..bgp.indexed import RouteCatchments
from ..bgp.simulator import RoutingOutcome
from ..types import ASN, Catchment, LinkId
from .sources import SourcePlacement


@dataclass(frozen=True)
class SpoofedPacket:
    """One spoofed packet as seen at the origin network.

    Attributes:
        ingress_link: peering link the packet arrived on (observable).
        spoofed_source: the forged source address, as a 32-bit int
            (observable but meaningless for attribution).
        true_source_as: ground-truth originating AS (never observable in
            practice; kept for evaluating identification accuracy).
        size_bytes: packet size.
    """

    ingress_link: LinkId
    spoofed_source: int
    true_source_as: ASN
    size_bytes: int = 64


class LinkVolumeMap(Dict[LinkId, float]):
    """Per-link spoofed volumes plus the volume no catchment attributed.

    Behaves exactly like a ``{link: volume}`` dict (all existing callers
    keep working), with one companion value: :attr:`unattributed`, the
    volume originated by sources outside every catchment.  With it, volume
    conservation holds: ``sum(volumes.values()) + volumes.unattributed``
    equals the total volume the placement offered.
    """

    def __init__(
        self,
        volumes: Optional[Mapping[LinkId, float]] = None,
        unattributed: float = 0.0,
    ) -> None:
        super().__init__(volumes or {})
        #: Volume from sources with no route to the prefix under this
        #: configuration (never observable at the origin's links).
        self.unattributed = unattributed

    @property
    def attributed(self) -> float:
        """Total volume that arrived on some peering link."""
        return sum(self.values())

    @property
    def offered(self) -> float:
        """Total volume the sources originated (attributed + unattributed)."""
        return self.attributed + self.unattributed


def _ingress_links(
    catchments: Mapping[LinkId, Catchment], asns: Iterable[ASN]
) -> Dict[ASN, LinkId]:
    """The link each of ``asns`` routes to; ASes with no route are left out.

    A simulated outcome's catchments answer from its route table without
    building a set; other maps are searched in reverse order, so a later
    catchment wins an overlap.
    """
    if isinstance(catchments, RouteCatchments):
        link_of = catchments.routes.link_of
        found = ((asn, link_of(asn)) for asn in asns)
        return {asn: link for asn, link in found if link is not None}
    backwards = list(catchments.items())[::-1]
    ingress: Dict[ASN, LinkId] = {}
    for asn in asns:
        for link, members in backwards:
            if asn in members:
                ingress[asn] = link
                break
    return ingress


def link_volumes(
    placement: SourcePlacement,
    catchments: Mapping[LinkId, Catchment],
    total_volume: float = 1.0,
) -> LinkVolumeMap:
    """Noiseless per-link spoofed volume under one configuration.

    Each source AS's volume lands entirely on the link whose catchment
    contains it.  Sources outside every catchment (no route to the prefix,
    e.g. after a withdrawal) deliver nothing to any link; their volume is
    accounted in the returned map's ``unattributed`` companion value so
    volume conservation holds — the caller decides how to treat it.
    """
    by_as = placement.volume_by_as(total_volume)
    ingress = _ingress_links(catchments, by_as)
    volumes = LinkVolumeMap({link: 0.0 for link in catchments})
    for asn, volume in by_as.items():
        link = ingress.get(asn)
        if link is None:
            volumes.unattributed += volume
        else:
            volumes[link] += volume
    return volumes


def link_volumes_from_outcome(
    placement: SourcePlacement,
    outcome: RoutingOutcome,
    total_volume: float = 1.0,
) -> LinkVolumeMap:
    """Per-link volumes computed from a routing outcome's catchments."""
    return link_volumes(placement, outcome.catchments, total_volume)


class SpoofedTrafficGenerator:
    """Generates packet-level spoofed traffic for honeypot experiments.

    Packets are attributed to links via the supplied catchments; spoofed
    source addresses are drawn uniformly from the IPv4 space (classic
    random-spoofing behaviour of amplification attack origins).

    Args:
        placement: where the spoofing sources sit.
        catchments: the active configuration's catchments.
        rng: PRNG for reproducibility.
        packet_size_bytes: size of every generated packet.
    """

    def __init__(
        self,
        placement: SourcePlacement,
        catchments: Mapping[LinkId, Catchment],
        rng: Optional[random.Random] = None,
        packet_size_bytes: int = 64,
    ) -> None:
        if packet_size_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.placement = placement
        self.rng = rng or random.Random()
        self.packet_size_bytes = packet_size_bytes
        self._catchment_of = _ingress_links(
            catchments, placement.spoofing_ases
        )
        # Sources with no route never deliver packets.
        self._active: List[ASN] = sorted(self._catchment_of)
        self._weights = [placement.sources_by_as[asn] for asn in self._active]

    @property
    def active_source_ases(self) -> List[ASN]:
        """Source ASes that currently have a route to the prefix."""
        return list(self._active)

    def packets(self, count: int) -> Iterator[SpoofedPacket]:
        """Yield ``count`` spoofed packets with sources drawn ∝ source counts."""
        if count < 0:
            raise ValueError("packet count must be non-negative")
        if not self._active:
            return
        origins = self.rng.choices(self._active, weights=self._weights, k=count)
        for true_source in origins:
            yield SpoofedPacket(
                ingress_link=self._catchment_of[true_source],
                spoofed_source=self.rng.getrandbits(32),
                true_source_as=true_source,
                size_bytes=self.packet_size_bytes,
            )


def volumes_from_packets(packets: Iterable[SpoofedPacket]) -> Dict[LinkId, float]:
    """Aggregate packets into per-link byte volumes."""
    volumes: Dict[LinkId, float] = {}
    for packet in packets:
        volumes[packet.ingress_link] = (
            volumes.get(packet.ingress_link, 0.0) + packet.size_bytes
        )
    return volumes
