"""Reference BGP propagation: the per-AS dict/object Gauss-Seidel sweep.

This is the executable specification of the §II decision process that
:class:`repro.bgp.simulator.RoutingSimulator` runs through the compiled
frontier core of :mod:`repro.bgp.indexed`.  It lives with the tests
because nothing at runtime needs it: the equivalence suites
(``test_bgp_indexed.py``) and the 75k-AS fixpoint benchmark hold the
indexed core to it bit for bit — routes, catchments, passes, decision
changes and convergence flags.

Every AS is visited in the simulator's fixed order on every pass, each
re-selecting its best route from its neighbors' current selections
through plain :class:`~repro.bgp.policy.PolicyModel` method calls, until
a full pass changes nothing.  Because it calls ``accepts``/``exports``
directly, it also runs policies that override them, which the simulator
refuses to compile.  Its outcomes hold their routes in a
:class:`RouteMap`, a plain dict of routes with the route table's reads
(``link_of``, ``path_of``, ``forwarding_path``) done route by route.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.bgp.announcement import AnnouncementConfig
from repro.bgp.policy import PolicyModel
from repro.bgp.route import Route, stable_tiebreak
from repro.bgp.simulator import DEFAULT_MAX_PASSES, RoutingOutcome, RoutingSimulator
from repro.errors import ConvergenceError, SimulationError
from repro.topology.graph import ASGraph
from repro.topology.peering import OriginNetwork
from repro.topology.relationships import Relationship
from repro.types import ASN, ASPath, LinkId


class RouteMap(dict):
    """A plain ``{ASN: Route}`` dict with the route-table reads.

    :class:`~repro.bgp.indexed.RouteTable` answers ``link_of``,
    ``path_of`` and ``forwarding_path`` off its arrays; this answers them
    by reading :class:`Route` objects, so outcomes of the reference sweep
    (and dicts of routes doctored by a test) can stand where a simulated
    outcome's table does, and the walk here is the oracle the table's is
    held to.

    Args:
        routes: best route per routed AS.
        origin_asn: where every forwarding path ends.
        known_ases: every AS of the topology, routed or not.
    """

    def __init__(
        self,
        routes: Mapping[ASN, Route],
        origin_asn: ASN,
        known_ases: FrozenSet[ASN],
    ) -> None:
        super().__init__(routes)
        self.origin_asn = origin_asn
        self.known_ases = known_ases

    def link_of(self, asn: ASN) -> Optional[LinkId]:
        route = self.get(asn)
        return route.link_id if route is not None else None

    def path_of(self, asn: ASN) -> Optional[ASPath]:
        route = self.get(asn)
        return route.as_path if route is not None else None

    def forwarding_path(self, asn: ASN) -> ASPath:
        """Follow ``learned_from`` route by route to the origin."""
        if asn not in self.known_ases:
            raise SimulationError(
                f"AS {asn} is not part of the simulated topology"
            )
        if asn == self.origin_asn:
            return (asn,)
        hops: List[ASN] = [asn]
        current = asn
        for _ in range(len(self) + 2):
            route = self.get(current)
            if route is None:
                raise SimulationError(
                    f"AS {current} holds no route toward the prefix"
                    if current == asn
                    else f"AS {current} (next hop of AS {asn}) holds no route "
                    "toward the prefix"
                )
            next_hop = route.learned_from
            hops.append(next_hop)
            if next_hop == self.origin_asn:
                return tuple(hops)
            current = next_hop
        raise SimulationError(f"forwarding loop detected starting at AS {asn}")


class ReferenceSweep:
    """Reference propagation over a simulator's substrate.

    Args:
        graph: AS topology including the attached origin AS.
        origin: the origin network whose links announce the prefix.
        policy: routing policies (any :class:`PolicyModel` subclass).
        visit_order: Gauss-Seidel visit order (all ASes but the origin);
            :meth:`of` reuses the simulator's so trajectories match.
        max_passes: bound on fixpoint iterations.
        strict: raise :class:`ConvergenceError` at the bound instead of
            returning the state with ``converged=False``.
    """

    def __init__(
        self,
        graph: ASGraph,
        origin: OriginNetwork,
        policy: PolicyModel,
        visit_order: Sequence[ASN],
        max_passes: int = DEFAULT_MAX_PASSES,
        strict: bool = False,
    ) -> None:
        self.graph = graph
        self.origin = origin
        self.policy = policy
        self.max_passes = max_passes
        self.strict = strict
        self._visit_order: List[ASN] = list(visit_order)
        # Built on first use, so a timed first simulate() includes it.
        self._neighbors: Optional[Dict[ASN, List[Tuple[ASN, Relationship]]]] = None
        self._known_ases: FrozenSet[ASN] = graph.ases

    @classmethod
    def of(
        cls, simulator: RoutingSimulator, policy: Optional[PolicyModel] = None
    ) -> "ReferenceSweep":
        """The reference twin of ``simulator`` (optionally another policy)."""
        return cls(
            simulator.graph,
            simulator.origin,
            simulator.policy if policy is None else policy,
            simulator._visit_order,
            simulator.max_passes,
            simulator.strict,
        )

    def simulate(
        self,
        config: AnnouncementConfig,
        warm_start: Optional[Mapping[ASN, Route]] = None,
    ) -> RoutingOutcome:
        """Reference Gauss-Seidel sweep (the executable specification).

        ``warm_start`` has :meth:`RoutingSimulator.simulate` semantics,
        stale-tail seed filter included.
        """
        if self._neighbors is None:
            self._neighbors = {
                asn: sorted(self.graph.neighbors(asn).items())
                for asn in self.graph.ases
            }
        origin_asn = self.origin.asn
        # Iterate the announced set in sorted order everywhere a dict is
        # built from it: LinkIds are strings, so raw set order varies
        # with the interpreter's hash seed, and the insertion order here
        # leaks into every downstream .items() walk and float sum.
        announced_paths: Dict[LinkId, ASPath] = {
            link: config.as_path_for_link(origin_asn, link)
            for link in sorted(config.announced)
        }
        providers_by_asn: Dict[ASN, LinkId] = {
            self.origin.provider_of(link): link
            for link in sorted(config.announced)
        }
        provider_by_link: Dict[LinkId, ASN] = {
            link: provider for provider, link in providers_by_asn.items()
        }

        best: Dict[ASN, Route] = {}
        if warm_start:
            announced = config.announced
            for asn, route in warm_start.items():
                if (
                    route.link_id not in announced
                    or asn == origin_asn
                    or asn not in self._known_ases
                ):
                    continue
                fresh = announced_paths[route.link_id]
                path = route.as_path
                cut = len(path) - len(fresh)
                # Stale-tail filter: drop seeds whose embedded announced
                # path differs from what this configuration announces
                # through the same link (see the docstring above).
                if cut < 0 or path[cut:] != fresh:
                    continue
                best[asn] = route
        decision_changes = 0
        converged = False
        passes = 0
        while passes < self.max_passes:
            passes += 1
            changed = 0
            for asn in self._visit_order:
                new_route = self._select(
                    asn, best, announced_paths, providers_by_asn,
                    provider_by_link, config,
                )
                old_route = best.get(asn)
                if new_route != old_route:
                    changed += 1
                    if new_route is None:
                        del best[asn]
                    else:
                        best[asn] = new_route
            decision_changes += changed
            if changed == 0:
                converged = True
                break
        if not converged and self.strict:
            raise ConvergenceError(
                f"no fixpoint after {self.max_passes} passes for {config.describe()}"
            )

        catchments: Dict[LinkId, set] = {
            link: set() for link in sorted(config.announced)
        }
        for asn, route in best.items():
            catchments[route.link_id].add(asn)
        return RoutingOutcome(
            config=config,
            routes=RouteMap(best, origin_asn, self._known_ases),
            catchments={link: frozenset(ases) for link, ases in catchments.items()},
            passes=passes,
            decision_changes=decision_changes,
            converged=converged,
            origin_asn=origin_asn,
            warm_started=bool(warm_start),
        )


    def _select(
        self,
        asn: ASN,
        best: Mapping[ASN, Route],
        announced_paths: Mapping[LinkId, ASPath],
        providers_by_asn: Mapping[ASN, LinkId],
        provider_by_link: Mapping[LinkId, ASN],
        config: AnnouncementConfig,
    ) -> Optional[Route]:
        """Re-run the BGP decision process at ``asn``.

        Candidate filtering (loop prevention, valley-free export, tier-1
        leak filters, no-export action communities at the direct provider)
        happens on the neighbor's stored path to avoid building AS-path
        tuples for losing candidates; the full :class:`Route` is
        materialized only for the winner.
        """
        policy = self.policy
        origin_asn = self.origin.asn
        salt = policy.salt_for(asn)
        best_key = None
        best_choice: Optional[Tuple[ASN, Relationship, Optional[Route], LinkId]] = None

        direct_link = providers_by_asn.get(asn)
        if direct_link is not None:
            origin_path = announced_paths[direct_link]
            relationship = self.graph.relationship(asn, origin_asn)
            if policy.accepts(asn, (), origin_path, relationship):
                local_pref = policy.local_pref(asn, relationship)
                key = (
                    -local_pref,
                    len(origin_path),
                    policy.igp_cost(asn, origin_asn),
                    stable_tiebreak(asn, origin_asn, salt),
                    origin_asn,
                    direct_link,
                )
                best_key = key
                best_choice = (origin_asn, relationship, None, direct_link)

        for neighbor, relationship in self._neighbors[asn]:
            if neighbor == origin_asn:
                continue  # handled above via providers_by_asn
            neighbor_route = best.get(neighbor)
            if neighbor_route is None:
                continue
            if not policy.exports(
                neighbor_route.relationship, self.graph.relationship(neighbor, asn)
            ):
                continue
            # No-export action community: the direct provider honors the
            # origin's request not to announce toward specific neighbors.
            blocked = config.no_export_for_link(neighbor_route.link_id)
            if (
                blocked
                and asn in blocked
                and neighbor == provider_by_link[neighbor_route.link_id]
            ):
                continue
            announced = announced_paths[neighbor_route.link_id]
            stuffed_len = len(announced)
            path = neighbor_route.as_path
            transit = path[:-stuffed_len] if stuffed_len < len(path) else ()
            if not policy.accepts(asn, transit, announced, relationship):
                continue
            local_pref = policy.local_pref(asn, relationship)
            key = (
                -local_pref,
                len(path) + 1,
                policy.igp_cost(asn, neighbor),
                stable_tiebreak(asn, neighbor, salt),
                neighbor,
                neighbor_route.link_id,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_choice = (neighbor, relationship, neighbor_route, neighbor_route.link_id)

        if best_choice is None:
            return None
        learned_from, relationship, via_route, link_id = best_choice
        if via_route is None:
            as_path = announced_paths[link_id]
        else:
            as_path = (learned_from,) + via_route.as_path
        return Route(
            as_path=as_path,
            link_id=link_id,
            learned_from=learned_from,
            relationship=relationship,
            local_pref=policy.local_pref(asn, relationship),
        )
