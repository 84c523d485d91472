"""Router-level traceroute simulation toward the announced prefix.

The paper's catchment measurements combine BGP feeds with traceroutes
issued from RIPE Atlas probes (§IV-b).  This engine produces traceroute
output with the artifacts that make the paper's repair pipeline
(:mod:`repro.measurement.repair`) necessary:

* multiple routers per AS,
* unresponsive hops (``*``),
* hops on IXP peering LANs (addresses belonging to no member AS),
* border interfaces numbered from the upstream neighbor's address space,
* occasional bogus paths (probe misattribution / stale routes), and
* truncated measurements that never reach the target.

All randomness is derived from ``(seed, probe AS, round)`` so a
measurement is reproducible regardless of call order.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bgp.simulator import RoutingOutcome
from ..errors import MeasurementError, SimulationError
from ..topology.graph import ASGraph
from ..types import ASN, ASPath
from .ip2as import AddressPlan
from .ixp import IXPRegistry


@dataclass(frozen=True)
class Traceroute:
    """One traceroute measurement.

    Attributes:
        probe_as: AS hosting the probe.
        target: destination address (inside the announced prefix).
        hops: per-hop responding address, None for unresponsive hops.
        reached_target: whether the last hop is the target.
    """

    probe_as: ASN
    target: int
    hops: Tuple[Optional[int], ...]
    reached_target: bool

    @property
    def responsive_hops(self) -> Tuple[int, ...]:
        """Addresses of hops that responded."""
        return tuple(hop for hop in self.hops if hop is not None)


@dataclass(frozen=True)
class TracerouteParams:
    """Artifact rates for the traceroute engine.

    Attributes:
        max_routers_per_as: internal router chain length is
            1 + (stable hash % this) per AS.
        unresponsive_rate: per-hop probability of no reply.
        border_sharing_rate: probability the entry interface into an AS is
            numbered from the previous AS's space (real-world IP-to-AS
            error source).
        path_error_rate: probability the probe measures a neighbor's path
            instead of its own (probe misattribution).
        truncation_rate: probability the measurement dies before the
            target.
        divergence_rate: probability a traceroute diverges from the
            AS-level best path at an intermediate AS — "different routers
            within an AS may choose different routes" (paper §IV-c).  This
            is the mechanism that puts an AS in multiple catchments.
        seed: base seed for per-measurement PRNGs.
    """

    max_routers_per_as: int = 2
    unresponsive_rate: float = 0.08
    border_sharing_rate: float = 0.15
    path_error_rate: float = 0.01
    truncation_rate: float = 0.03
    divergence_rate: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_routers_per_as < 1:
            raise MeasurementError("max_routers_per_as must be at least 1")
        for name in (
            "unresponsive_rate",
            "border_sharing_rate",
            "path_error_rate",
            "truncation_rate",
            "divergence_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise MeasurementError(f"{name} must be in [0, 1], got {value}")


class TracerouteEngine:
    """Simulates traceroutes along a routing outcome's forwarding paths.

    Hop addresses depend only on the static testbed (address plan, IXP
    registry, seed), so they are memoized on first use: each AS's router
    interface chain, and per traversed AS pair the peering-LAN hop and
    the border interface numbered from the upstream AS.  The tables never
    hold per-configuration data.
    """

    def __init__(
        self,
        graph: ASGraph,
        plan: AddressPlan,
        ixps: Optional[IXPRegistry] = None,
        params: Optional[TracerouteParams] = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.ixps = ixps or IXPRegistry()
        self.params = params or TracerouteParams()
        self._router_addresses: Dict[ASN, Tuple[int, ...]] = {}
        self._lan_hops: Dict[Tuple[ASN, ASN], Optional[int]] = {}
        self._border_addresses: Dict[Tuple[ASN, ASN], int] = {}

    def _routers_in(self, asn: ASN) -> int:
        digest = zlib.crc32(f"routers|{asn}|{self.params.seed}".encode("ascii"))
        return 1 + digest % self.params.max_routers_per_as

    def _rng_for(self, probe_as: ASN, round_index: int, config_key: str) -> random.Random:
        digest = zlib.crc32(
            f"probe|{probe_as}|{round_index}|{config_key}|{self.params.seed}".encode("ascii")
        )
        return random.Random(digest)

    def _routers_of(self, asn: ASN) -> Tuple[int, ...]:
        """Interface addresses of ``asn``'s internal router chain."""
        addresses = self._router_addresses.get(asn)
        if addresses is None:
            addresses = self._router_addresses[asn] = tuple(
                self.plan.router_address(asn, self._hop_slot(asn, index))
                for index in range(self._routers_in(asn))
            )
        return addresses

    def _lan_hop(self, previous_as: ASN, asn: ASN) -> Optional[int]:
        """Peering-LAN address ``asn`` answers from when entered from
        ``previous_as`` over an IXP; None for a private interconnect."""
        key = (previous_as, asn)
        try:
            return self._lan_hops[key]
        except KeyError:
            pass
        ixp = self.ixps.ixp_for_link(previous_as, asn)
        address = None if ixp is None else self.ixps.lan_address(ixp, asn)
        self._lan_hops[key] = address
        return address

    def _border_address(self, previous_as: ASN, asn: ASN) -> int:
        """``asn``'s entry interface numbered from ``previous_as``'s block."""
        key = (previous_as, asn)
        address = self._border_addresses.get(key)
        if address is None:
            address = self._border_addresses[key] = self.plan.router_address(
                previous_as, self._hop_slot(asn, 0)
            )
        return address

    def measure(
        self,
        outcome: RoutingOutcome,
        probe_as: ASN,
        round_index: int = 0,
        config_key: Optional[str] = None,
    ) -> Optional[Traceroute]:
        """Run one traceroute from ``probe_as`` toward the prefix.

        ``config_key`` is ``outcome.config.describe()``; callers issuing
        many traceroutes under one outcome pass it to skip recomputing it.

        Returns None when the probe currently has no route (e.g. its
        region lost reachability under a withdrawal) — matching a real
        measurement timing out entirely.
        """
        params = self.params
        if config_key is None:
            config_key = outcome.config.describe()
        rng = self._rng_for(probe_as, round_index, config_key)
        measured_as = probe_as
        if params.path_error_rate and rng.random() < params.path_error_rate:
            neighbors = sorted(self.graph.neighbors(probe_as))
            neighbors = [n for n in neighbors if n in outcome.routes]
            if neighbors:
                measured_as = rng.choice(neighbors)
        try:
            as_path = outcome.forwarding_path(measured_as)
        except SimulationError:
            return None
        if (
            params.divergence_rate
            and len(as_path) > 3
            and rng.random() < params.divergence_rate
        ):
            as_path = self._diverge(outcome, as_path, rng)

        target = self.plan.target_address()
        draw = rng.random
        unresponsive_rate = params.unresponsive_rate
        border_sharing_rate = params.border_sharing_rate
        hops: List[Optional[int]] = []
        previous_as: Optional[ASN] = None
        for asn in as_path[:-1]:  # the origin is represented by the target hop
            if previous_as is not None:
                lan = self._lan_hop(previous_as, asn)
                if lan is not None:
                    hops.append(None if draw() < unresponsive_rate else lan)
            for router_index, address in enumerate(self._routers_of(asn)):
                if draw() < unresponsive_rate:
                    hops.append(None)
                    continue
                # The border-sharing draw happens even at rate 0, so the
                # draw sequence does not depend on the rate.
                if (
                    router_index == 0
                    and previous_as is not None
                    and draw() < border_sharing_rate
                ):
                    address = self._border_address(previous_as, asn)
                hops.append(address)
            previous_as = asn

        if params.truncation_rate and rng.random() < params.truncation_rate and hops:
            cut = rng.randrange(1, len(hops) + 1)
            return Traceroute(
                probe_as=probe_as,
                target=target,
                hops=tuple(hops[:cut]),
                reached_target=False,
            )
        hops.append(target)
        return Traceroute(
            probe_as=probe_as, target=target, hops=tuple(hops), reached_target=True
        )

    def _diverge(
        self, outcome: RoutingOutcome, as_path: ASPath, rng: random.Random
    ) -> ASPath:
        """Fork the path at an intermediate AS onto a neighbor's best path.

        Models per-flow routing diversity inside large ASes: the packet
        exits through a different border than the AS's (single) best route
        in our model, continuing along that neighbor's path to the origin.
        Divergences that would create AS-level loops are discarded.
        """
        fork_index = rng.randrange(1, len(as_path) - 2)
        fork_as = as_path[fork_index]
        prefix = as_path[: fork_index + 1]
        default_next = as_path[fork_index + 1]
        neighbors = [
            neighbor
            for neighbor in sorted(self.graph.neighbors(fork_as))
            if neighbor != default_next and neighbor in outcome.routes
        ]
        rng.shuffle(neighbors)
        for neighbor in neighbors:
            try:
                suffix = outcome.forwarding_path(neighbor)
            except SimulationError:
                continue
            candidate = prefix + suffix
            if len(candidate) == len(set(candidate)):
                return candidate
        return as_path

    def _hop_slot(self, asn: ASN, router_index: int) -> int:
        """Stable interface index so the same router keeps its address."""
        digest = zlib.crc32(f"slot|{asn}|{router_index}|{self.params.seed}".encode("ascii"))
        return digest % 1024 + router_index
