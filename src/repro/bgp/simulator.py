"""BGP route propagation over an AS graph for one announcement configuration.

The simulator computes, for every AS, the best route toward the origin's
prefix under the configured announcement ⟨A; P; Q⟩, applying the decision
process of §II (LocalPref → AS-path length → deterministic tiebreaks) and
the import/export policies of :class:`repro.bgp.policy.PolicyModel`.

Propagation is a Gauss-Seidel fixpoint iteration: ASes are visited in a
fixed order, each re-selecting its best route from its neighbors' current
selections, until a full pass changes nothing.  Under Gao-Rexford policies
this converges in a number of passes proportional to the routing-system
diameter; deviant-policy ASes can in principle oscillate, so the iteration
is bounded and the outcome records whether a fixpoint was reached.

Two interchangeable cores implement the iteration:

* ``"indexed"`` (the default): the compiled, integer-indexed frontier
  core in :mod:`repro.bgp.indexed`, which re-evaluates only ASes whose
  neighborhood changed and runs several times faster at every scale
  (~4.5× on a 75k-AS graph once compiled).
* ``"legacy"``: the per-AS dict/object reference implementation kept in
  this module.  It is the executable specification; the indexed core is
  bit-identical to it (routes, catchments, passes, decision changes) and
  the equivalence test suite holds the two together.

Select a core per simulator via ``RoutingSimulator(..., core=...)`` or
process-wide via the ``REPRO_SIM_CORE`` environment variable.  Policies
that override ``accepts``/``exports`` cannot be compiled and silently
fall back to the reference core.

The per-link *catchment* — the set of ASes whose best route descends from
that peering link — falls directly out of the fixpoint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..errors import ConvergenceError, SimulationError
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..topology.relationships import Relationship
from ..types import ASN, ASPath, LinkId
from .announcement import AnnouncementConfig
from .indexed import CompiledTopology, policy_is_compilable
from .policy import PolicyModel
from .route import Route, stable_tiebreak

#: Default bound on Gauss-Seidel passes before declaring non-convergence.
DEFAULT_MAX_PASSES = 60

#: Environment variable that picks the propagation core when the
#: ``core=`` constructor argument is omitted.
CORE_ENV_VAR = "REPRO_SIM_CORE"

#: Core used when neither ``core=`` nor the environment selects one.
DEFAULT_CORE = "indexed"

_VALID_CORES = ("indexed", "legacy")


@dataclass
class RoutingOutcome:
    """Result of simulating one announcement configuration.

    Attributes:
        config: the configuration that was simulated.
        routes: best route per AS (ASes with no route are absent).
        catchments: per announced link, the set of ASes routed toward it.
        passes: Gauss-Seidel passes executed.
        decision_changes: total number of best-route changes observed.
        converged: whether a full pass with no changes was reached.
    """

    config: AnnouncementConfig
    routes: Dict[ASN, Route]
    catchments: Dict[LinkId, FrozenSet[ASN]]
    passes: int
    decision_changes: int
    converged: bool
    origin_asn: ASN
    #: All ASes of the simulated topology (shared frozenset, not a copy);
    #: empty on outcomes built by hand before this field existed.
    known_ases: FrozenSet[ASN] = frozenset()
    #: Whether the fixpoint was seeded from a prior outcome's routes.
    warm_started: bool = False

    def route(self, asn: ASN) -> Optional[Route]:
        """Best route of ``asn``, or None if it has no route."""
        return self.routes.get(asn)

    def catchment_of(self, asn: ASN) -> Optional[LinkId]:
        """Peering link whose catchment contains ``asn`` (None if unrouted)."""
        route = self.routes.get(asn)
        return route.link_id if route is not None else None

    @property
    def covered_ases(self) -> FrozenSet[ASN]:
        """ASes holding a route toward the prefix."""
        return frozenset(self.routes)

    def forwarding_path(self, asn: ASN) -> ASPath:
        """Data-plane AS path from ``asn`` to the origin.

        Unlike the control-plane AS-path, this excludes prepending
        repetitions and poison stuffing: it is the chain of ASes packets
        actually traverse, ending at the origin.  Used by the traceroute
        simulation.

        Raises:
            SimulationError: if ``asn`` is not part of the simulated
                topology at all, if it holds no route, or if the next-hop
                chain is broken (only possible on non-converged outcomes).
        """
        if self.known_ases and asn not in self.known_ases:
            raise SimulationError(
                f"AS {asn} is not part of the simulated topology"
            )
        if asn == self.origin_asn:
            return (asn,)
        hops: List[ASN] = [asn]
        current = asn
        for _ in range(len(self.routes) + 2):
            route = self.routes.get(current)
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


class RoutingSimulator:
    """Propagates announcement configurations over a topology.

    Args:
        graph: AS topology including the attached origin AS.
        origin: the origin network whose links announce the prefix.
        policy: routing policies; a default Gao-Rexford model is built
            when omitted.
        max_passes: bound on fixpoint iterations.
        strict: when True, non-convergence raises
            :class:`repro.errors.ConvergenceError`; when False the
            (still well-defined) state at the bound is returned with
            ``converged=False``.
        core: ``"indexed"`` (compiled frontier core, the default) or
            ``"legacy"`` (reference implementation).  ``None`` defers to
            the ``REPRO_SIM_CORE`` environment variable, then to
            :data:`DEFAULT_CORE`.  Policies overriding
            ``accepts``/``exports`` always run on the legacy core
            regardless of this setting.
    """

    def __init__(
        self,
        graph: ASGraph,
        origin: OriginNetwork,
        policy: Optional[PolicyModel] = None,
        max_passes: int = DEFAULT_MAX_PASSES,
        strict: bool = False,
        core: Optional[str] = None,
    ) -> None:
        for link in origin.links:
            if not graph.has_link(origin.asn, link.provider):
                raise SimulationError(
                    f"origin {origin.asn} not linked to provider {link.provider} "
                    f"of {link.link_id!r} in the topology"
                )
        if max_passes < 1:
            raise SimulationError("max_passes must be positive")
        if core is None:
            core = os.environ.get(CORE_ENV_VAR, "").strip() or DEFAULT_CORE
        if core not in _VALID_CORES:
            raise SimulationError(
                f"unknown simulation core {core!r}; expected one of {_VALID_CORES}"
            )
        self.graph = graph
        self.origin = origin
        self.policy = policy if policy is not None else PolicyModel(graph)
        self.max_passes = max_passes
        self.strict = strict
        self.core = core
        # Stable visit order: hierarchy-ish (providers of the origin first
        # via BFS from the origin) so information flows outward quickly and
        # convergence needs few passes.
        distances = graph.hop_distances([origin.asn])
        self._visit_order: List[ASN] = sorted(
            (asn for asn in graph.ases if asn != origin.asn),
            key=lambda asn: (distances.get(asn, len(graph)), asn),
        )
        # Both caches are built lazily on first use: the indexed core
        # never needs the legacy adjacency dicts and vice versa.
        self._neighbors: Optional[Dict[ASN, List[Tuple[ASN, Relationship]]]] = None
        self._compiled: Optional[CompiledTopology] = None
        self._known_ases: FrozenSet[ASN] = graph.ases

    # ------------------------------------------------------------------

    @property
    def effective_core(self) -> str:
        """Core that :meth:`simulate` will actually run.

        ``"indexed"`` only when selected *and* the policy's import/export
        logic is compilable; otherwise ``"legacy"``.
        """
        if self.core == "indexed" and policy_is_compilable(self.policy):
            return "indexed"
        return "legacy"

    def simulate(
        self,
        config: AnnouncementConfig,
        warm_start: Optional[Mapping[ASN, Route]] = None,
    ) -> RoutingOutcome:
        """Propagate ``config`` to a fixpoint and return the outcome.

        Args:
            config: the announcement configuration to propagate.
            warm_start: best routes of a previously simulated, similar
                configuration (e.g. the same announcement set without
                prepending).  The fixpoint iteration is seeded from these
                routes instead of the empty state, which typically cuts
                the number of Gauss-Seidel passes substantially.  Seeded
                routes through links the new configuration does not
                announce — or whose AS-path no longer ends in the path
                this configuration announces through their link (e.g.
                after a prepending change) — are discarded; every
                surviving seed is still re-evaluated by the decision
                process, so the fixpoint reached is a genuine stable
                state of ``config`` (route chains can never be circular —
                path lengths grow along them — so at a fixpoint every
                chain terminates in a freshly announced path).  The
                stale-tail filter matters: deviant-policy topologies
                admit multiple stable states, and stale seeds can steer
                the iteration into a different one than a cold start
                reaches.
        """
        self._validate_config(config)
        if self.effective_core == "indexed":
            if self._compiled is None:
                self._compiled = CompiledTopology.compile(
                    self.graph, self.origin, self.policy, self._visit_order
                )
            return self._compiled.propagate(
                config, warm_start, self.max_passes, self.strict,
                self._known_ases,
            )
        return self._simulate_legacy(config, warm_start)

    def _simulate_legacy(
        self,
        config: AnnouncementConfig,
        warm_start: Optional[Mapping[ASN, Route]] = None,
    ) -> RoutingOutcome:
        """Reference Gauss-Seidel sweep (the executable specification)."""
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
            routes=best,
            catchments={link: frozenset(ases) for link, ases in catchments.items()},
            passes=passes,
            decision_changes=decision_changes,
            converged=converged,
            origin_asn=origin_asn,
            known_ases=self._known_ases,
            warm_started=bool(warm_start),
        )

    # ------------------------------------------------------------------

    def _validate_config(self, config: AnnouncementConfig) -> None:
        known = set(self.origin.link_ids)
        unknown = set(config.announced) - known
        if unknown:
            raise SimulationError(
                f"configuration announces from unknown links {sorted(unknown)}"
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
