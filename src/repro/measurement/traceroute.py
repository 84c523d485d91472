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

All randomness is derived from ``(seed, probe AS, round, configuration)``
— the configuration enters as its ``describe()`` key — so a measurement
is reproducible regardless of call order.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


#: One hop of a hop plan: the address that answers, and for an AS's
#: first router entered from another AS, the border interface numbered
#: from that AS's block (else None).
PlanHop = Tuple[int, Optional[int]]


class TracerouteEngine:
    """Simulates traceroutes along a routing outcome's forwarding paths.

    Hop addresses depend only on the static testbed (address plan, IXP
    registry, seed) and the forwarding AS path, so each distinct path's
    *hop plan* is memoized on first use: one :data:`PlanHop` per hop
    before the target — for each AS the packets traverse before the
    origin, the peering-LAN hop entering it (over an IXP) and its router
    chain.  That run of hops depends only on the AS and the one it is
    entered from, so it is memoized per AS pair and plans share it.
    Synthesis walks the plan, drawing per hop whether it answers
    and, at an AS's first router, whether the border interface answers
    from the upstream block, in exactly the order a per-hop derivation
    would.  The plan table is keyed by AS path only and never holds
    per-configuration data; the random draws are per configuration.
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
        self._entries: Dict[Tuple[Optional[ASN], ASN], Tuple[PlanHop, ...]] = {}
        self._hop_plans: Dict[ASPath, Tuple[PlanHop, ...]] = {}
        # Re-seeded per trace: seeding equals constructing a fresh one.
        self._rng = random.Random(0)

    def _routers_in(self, asn: ASN) -> int:
        digest = zlib.crc32(f"routers|{asn}|{self.params.seed}".encode("ascii"))
        return 1 + digest % self.params.max_routers_per_as

    def _entry_hops(self, previous_as: Optional[ASN], asn: ASN) -> Tuple[PlanHop, ...]:
        """The memoized :data:`PlanHop` run of ``asn`` entered from
        ``previous_as`` (None for the first AS of a path): the peering-LAN
        hop when the two meet over an IXP, then ``asn``'s router chain."""
        key = (previous_as, asn)
        hops = self._entries.get(key)
        if hops is None:
            first, *rest = (
                self.plan.router_address(asn, self._hop_slot(asn, index))
                for index in range(self._routers_in(asn))
            )
            built: List[PlanHop] = []
            border = None
            if previous_as is not None:
                ixp = self.ixps.ixp_for_link(previous_as, asn)
                if ixp is not None:
                    built.append((self.ixps.lan_address(ixp, asn), None))
                border = self.plan.router_address(previous_as, self._hop_slot(asn, 0))
            built.append((first, border))
            built.extend((address, None) for address in rest)
            hops = self._entries[key] = tuple(built)
        return hops

    def _hop_plan(self, as_path: ASPath) -> Tuple[PlanHop, ...]:
        """The memoized :data:`PlanHop` sequence of ``as_path``: its ASes'
        entry runs, end to end, sharing their hop tuples between paths."""
        plan = self._hop_plans.get(as_path)
        if plan is None:
            hops: List[PlanHop] = []
            previous_as: Optional[ASN] = None
            for asn in as_path[:-1]:  # the origin is represented by the target hop
                hops.extend(self._entry_hops(previous_as, asn))
                previous_as = asn
            plan = self._hop_plans[as_path] = tuple(hops)
        return plan

    @staticmethod
    def _forwarding_path(
        routes, asn: ASN, paths: Dict[ASN, Optional[ASPath]]
    ) -> Optional[ASPath]:
        """``routes.forwarding_path(asn)``, None when it has none, read
        through ``paths``, a memo for this one route table."""
        try:
            return paths[asn]
        except KeyError:
            pass
        try:
            path: Optional[ASPath] = routes.forwarding_path(asn)
        except SimulationError:
            path = None
        paths[asn] = path
        return path

    def synthesize(
        self,
        outcome: RoutingOutcome,
        probe_ases: Sequence[ASN],
        rounds: Iterable[int],
    ) -> List[Traceroute]:
        """Traceroutes from every probe in ``probe_ases`` in each of
        ``rounds``, round by round, toward the prefix under ``outcome``.

        A probe whose AS currently has no route (e.g. its region lost
        reachability under a withdrawal) gives no trace, matching a real
        measurement timing out entirely.  Each trace draws from the
        engine's generator seeded with the CRC32 of
        ``probe|<probe AS>|<round>|<outcome.config.describe()>|<seed>``;
        the per-probe head and per-round tail of that key are hashed
        once and joined by continuing the CRC.  Everything else that is
        fixed for the configuration (rates, target, route table, the
        forwarding-path memo) is read once per call, and hop plans come
        from the engine's memo.
        """
        params = self.params
        graph = self.graph
        routes = outcome.routes
        rng = self._rng
        # The C-level seed: ``random.Random.seed`` only adds type checks
        # for an int and a reset of the unused Gaussian cache.
        reseed = super(random.Random, rng).seed
        draw = rng.random
        path_error_rate = params.path_error_rate
        divergence_rate = params.divergence_rate
        unresponsive_rate = params.unresponsive_rate
        border_sharing_rate = params.border_sharing_rate
        truncation_rate = params.truncation_rate
        target = self.plan.target_address()
        hop_plan = self._hop_plan
        forwarding_path = self._forwarding_path
        paths: Dict[ASN, Optional[ASPath]] = {}
        crc32 = zlib.crc32
        suffix = f"|{outcome.config.describe()}|{params.seed}".encode("ascii")
        heads = [
            (probe_as, crc32(f"probe|{probe_as}|".encode("ascii")))
            for probe_as in probe_ases
        ]
        traces: List[Traceroute] = []
        emit = traces.append
        for round_index in rounds:
            tail = f"{round_index}".encode("ascii") + suffix
            for probe_as, head in heads:
                reseed(crc32(tail, head))
                measured_as = probe_as
                if path_error_rate and draw() < path_error_rate:
                    neighbors = [
                        n for n in sorted(graph.neighbors(probe_as)) if n in routes
                    ]
                    if neighbors:
                        measured_as = rng.choice(neighbors)
                as_path = forwarding_path(routes, measured_as, paths)
                if as_path is None:
                    continue
                if (
                    divergence_rate
                    and len(as_path) > 3
                    and draw() < divergence_rate
                ):
                    as_path = self._diverge(routes, as_path, rng, paths)
                hops: List[Optional[int]] = []
                append = hops.append
                for address, border in hop_plan(as_path):
                    # The border-sharing draw happens even at rate 0, so
                    # the draw sequence does not depend on the rate.
                    if draw() < unresponsive_rate:
                        append(None)
                    elif border is not None and draw() < border_sharing_rate:
                        append(border)
                    else:
                        append(address)

                if truncation_rate and draw() < truncation_rate and hops:
                    cut = rng.randrange(1, len(hops) + 1)
                    emit(Traceroute(probe_as, target, tuple(hops[:cut]), False))
                else:
                    append(target)
                    emit(Traceroute(probe_as, target, tuple(hops), True))
        return traces

    def measure(
        self, outcome: RoutingOutcome, probe_as: ASN, round_index: int = 0
    ) -> Optional[Traceroute]:
        """One traceroute from ``probe_as`` in round ``round_index``: the
        :meth:`synthesize` trace of that probe and round, or None when
        the probe has no route."""
        traces = self.synthesize(outcome, (probe_as,), (round_index,))
        return traces[0] if traces else None

    def _diverge(
        self,
        routes,
        as_path: ASPath,
        rng: random.Random,
        paths: Dict[ASN, Optional[ASPath]],
    ) -> ASPath:
        """Fork the path at an intermediate AS onto a neighbor's best path.

        Models per-flow routing diversity inside large ASes: the packet
        exits through a different border than the AS's (single) best route
        in our model, continuing along that neighbor's path to the origin.
        Divergences that would create AS-level loops are discarded.
        ``routes`` is the outcome's route table and ``paths`` the memo of
        its forwarding paths.
        """
        fork_index = rng.randrange(1, len(as_path) - 2)
        fork_as = as_path[fork_index]
        prefix = as_path[: fork_index + 1]
        default_next = as_path[fork_index + 1]
        neighbors = [
            neighbor
            for neighbor in sorted(self.graph.neighbors(fork_as))
            if neighbor != default_next and neighbor in routes
        ]
        rng.shuffle(neighbors)
        for neighbor in neighbors:
            suffix = self._forwarding_path(routes, neighbor, paths)
            if suffix is None:
                continue
            candidate = prefix + suffix
            if len(candidate) == len(set(candidate)):
                return candidate
        return as_path

    def _hop_slot(self, asn: ASN, router_index: int) -> int:
        """Stable interface index so the same router keeps its address."""
        digest = zlib.crc32(f"slot|{asn}|{router_index}|{self.params.seed}".encode("ascii"))
        return digest % 1024 + router_index
