"""Integer-indexed, frontier-driven core for BGP route propagation.

The reference Gauss-Seidel sweep (kept with the tests as the oracle)
keeps per-AS state in dictionaries keyed by ASN and re-derives policy
answers (LocalPref, IGP cost, tiebreak salts, export filters) through
method calls on every candidate evaluation of every pass.  That is
perfect as an executable specification and hopeless at CAIDA scale
(~75k ASes): a single fixpoint touches every AS every pass even when
only a handful of routes are still moving.

This module compiles the *static* part of a simulation once per
simulator and then propagates each configuration over dense integer
state:

* ASNs are mapped to dense indices; the adjacency becomes one flattened
  CSR-style edge array (``off``/``adj``).
* Every per-edge decision constant — negated LocalPref, IGP cost, the
  salted CRC32 tiebreak, the valley-free export masks in both
  directions, and the LocalPref the neighbor gives routes from this AS
  — is precomputed into parallel arrays, so the inner loop does list
  indexing instead of policy method calls.
* Route state lives in parallel arrays (link index, next hop,
  relationship class, LocalPref, AS-path length, path tuple) instead of
  :class:`~repro.bgp.route.Route` objects.  The outcome keeps the final
  arrays as a :class:`RouteTable`, a read-only mapping that builds a
  ``Route`` only when one is looked up, and its catchments as
  :class:`RouteCatchments`, which builds the sets off ``r_link`` only
  when one is read.
* Only ASes whose decision can change are re-evaluated: when an AS's
  route changes, a neighbor is scheduled only if its route was learned
  from this AS, or this AS's new route is exported to it and is not
  provably worse than its route (a lower LocalPref at the neighbor, or
  the same LocalPref and a strictly longer path; a tie goes to the
  tiebreak, so it schedules).  A withdrawn or replaced route the
  neighbor was not using wakes nothing.  On the ``paper`` schedule this
  is 262,806 evaluations and 1.45M edge scans for 251,409 decision
  changes.  Scheduling is position-ordered (a heap over visit
  positions), which makes the trajectory — every intermediate route,
  every per-pass change count, the number of passes — **bit-identical**
  to the reference sweep: every evaluation skipped is a provable no-op
  (see :meth:`CompiledTopology.propagate`), so skipping it cannot alter
  the outcome.
* The same argument covers pass 1 of a warm start seeded with the
  :class:`RouteTable` of a converged parent on this core.  That state
  is a best response at every AS, so pass 1 schedules only the ASes
  whose inputs differ from the parent's: dropped seeds, providers whose
  direct announcement changed, neighbors of a provider whose no-export
  entry changed, and the ASes of a changed announced path (see
  :meth:`CompiledTopology._pass1_frontier`).  Any other seed — a plain
  mapping, a table of another core, a parent cut at ``max_passes`` —
  is read into the same arrays, goes through the same seed filter, and
  gets the full pass 1.

On storage choices: inside the sweep the route state is plain Python
lists, deliberately.  The inner loop performs scalar indexed reads and
writes, and CPython reads a boxed int out of a list faster than it
unboxes one out of a typed array or a NumPy array; NumPy pays off for
whole-array arithmetic, which a Gauss-Seidel sweep with per-candidate
policy filters does not expose.  The project therefore stays
stdlib-only on this hot path, and no optional dependency gate is
needed.  Once the sweep ends, the table keeps typed columns instead,
because every outcome stays cached until the attribution solve and
five n-long lists per outcome were the largest share of a paper-scale
run's memory: ``r_link`` as ``array('h')``, ``r_from`` as
``array('I')``, ``r_lp`` as ``array('i')``, and the relationship (0-2)
and the AS-path length as one byte each (a path of 256 or more ASes
raises ``ValueError``; simulated paths are far shorter).  A warm start
copies them back into lists.  Relationships are plain ints throughout
the core and compared by value; :meth:`RouteTable.get` maps them back
to :class:`~repro.topology.relationships.Relationship`.

Path tuples are interned: every announced path and every new learned
path goes through :attr:`CompiledTopology.paths`, so equal paths are one
object across all outcomes of a core.  The table grows with the
distinct paths any fixpoint on the core ever selects, not with the
number of outcomes: 5,882 entries after the full ``paper`` schedule at
seed 0, whose cached outcomes hold 5,696 distinct paths (227,738 path
objects before interning).

The compiled core reproduces the *base* :class:`PolicyModel` import and
export semantics.  Policy subclasses that override only per-AS scalars
(``salt_for``, ``local_pref``, ``igp_cost``, ``loop_prevention_enabled``)
are compiled faithfully — the compiler calls those methods.  Subclasses
that override ``accepts``/``exports`` themselves cannot be compiled, and
:class:`~repro.bgp.simulator.RoutingSimulator` rejects them.
"""

from __future__ import annotations

import heapq
from array import array
from collections import abc
from struct import pack
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConvergenceError, SimulationError
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..topology.relationships import Relationship
from ..types import ASN, ASPath, LazyCatchments, LinkId
from .announcement import AnnouncementConfig
from .policy import PolicyModel
from .route import Route, stable_tiebreak

#: Relationships are plain ints 0-2 inside the core (compared by value);
#: :meth:`RouteTable.get` maps them back through ``_RELATIONSHIPS``.
_CUSTOMER = int(Relationship.CUSTOMER)
_RELATIONSHIPS = (
    Relationship.CUSTOMER,
    Relationship.PEER,
    Relationship.PROVIDER,
)
#: The relationship seen from the other end, indexed by relationship.
_INVERSE = tuple(rel.inverse for rel in _RELATIONSHIPS)


class CompiledTopology:
    """Per-simulator compiled arrays for the indexed propagation core.

    Built once by :meth:`compile`; :meth:`propagate` then runs any number
    of configurations over it.  The compiled tables are derived purely
    from ``(graph, origin, policy)``, so one compiled core serves every
    configuration simulated over that substrate.  The one table that
    grows is :attr:`paths`, the intern table of AS paths (see the module
    docstring).
    """

    __slots__ = (
        "asns",
        "index",
        "n",
        "origin_asn",
        "origin_idx",
        "order",
        "pos",
        "off",
        "adj",
        "e_neg_lp",
        "e_igp",
        "e_tb",
        "e_asn",
        "e_rel",
        "e_exp",
        "e_push",
        "e_back_lp",
        "loop_prev",
        "t1f",
        "tier1",
        "direct_consts",
        "link_ids",
        "link_index",
        "link_provider_idx",
        "providers",
        "num_edges",
        "paths",
        "link_format",
        "lp_format",
    )

    @classmethod
    def compile(
        cls,
        graph: ASGraph,
        origin: OriginNetwork,
        policy: PolicyModel,
        visit_order: Sequence[ASN],
    ) -> "CompiledTopology":
        """Flatten ``graph`` + ``policy`` into dense arrays.

        Args:
            graph: topology including the attached origin AS.
            origin: the announcing origin network.
            policy: a policy with the base ``accepts``/``exports``
                (scalar hooks may be overridden).
            visit_order: the simulator's Gauss-Seidel visit order (all
                ASes except the origin); the trajectory matches a full
                sweep in this order.
        """
        self = cls()
        origin_asn = origin.asn
        asns = sorted(graph.ases)
        index = {asn: i for i, asn in enumerate(asns)}
        n = len(asns)

        order = [index[asn] for asn in visit_order]
        pos = [-1] * n
        for position, i in enumerate(order):
            pos[i] = position

        # Export masks by the relationship of the neighbor a route would
        # go to: bit r set when routes learned under Relationship(r) are
        # exported to it.
        exports_to = {
            to: sum(
                1 << learned
                for learned in _RELATIONSHIPS
                if policy.exports(learned, to)
            )
            for to in _RELATIONSHIPS
        }
        tier1 = policy.tier1_ases
        t1_filtering = policy.tier1_leak_filtering
        loop_prev = bytearray(n)
        t1f = bytearray(n)
        off = [0] * (n + 1)
        adj: List[int] = []
        e_neg_lp: List[int] = []
        e_igp: List[int] = []
        e_tb: List[int] = []
        e_asn: List[ASN] = []
        e_rel: List[int] = []
        e_exp: List[int] = []
        e_push: List[int] = []
        direct_consts: Dict[int, Tuple[int, int, int, int]] = {}
        # Per AS, the LocalPref it gives each relationship it has: one
        # policy call per (AS, relationship), not one per edge.
        lp_by_rel: List[List[Optional[int]]] = [
            [None, None, None] for _ in range(n)
        ]

        for i, asn in enumerate(asns):
            loop_prev[i] = 1 if policy.loop_prevention_enabled(asn) else 0
            t1f[i] = 1 if (t1_filtering and asn in tier1) else 0
            salt = policy.salt_for(asn)
            lps = lp_by_rel[i]
            for neighbor, rel in sorted(graph.neighbors(asn).items()):
                lp = lps[rel]
                if lp is None:
                    lp = lps[rel] = policy.local_pref(asn, rel)
                igp = policy.igp_cost(asn, neighbor)
                tb = stable_tiebreak(asn, neighbor, salt)
                adj.append(index[neighbor])
                e_neg_lp.append(-lp)
                e_igp.append(igp)
                e_tb.append(tb)
                e_asn.append(neighbor)
                e_rel.append(int(rel))
                # What the neighbor exports to this AS (this AS seen from
                # the neighbor is the inverse annotation), and what this
                # AS exports to the neighbor.
                e_exp.append(exports_to[rel.inverse])
                e_push.append(exports_to[rel])
                if neighbor == origin_asn:
                    direct_consts[i] = (-lp, igp, tb, int(rel))
            off[i + 1] = len(adj)

        # The LocalPref the neighbor gives routes from this AS: what its
        # own edge back here carries, looked up by the relationship it
        # sees this AS under (LocalPref depends on nothing else).
        e_back_lp = [
            lp_by_rel[j][_INVERSE[rel]] for j, rel in zip(adj, e_rel)
        ]

        link_ids = list(origin.link_ids)
        self.asns = asns
        self.index = index
        self.n = n
        self.origin_asn = origin_asn
        self.origin_idx = index[origin_asn]
        self.order = order
        self.pos = pos
        self.off = off
        self.adj = adj
        self.e_neg_lp = e_neg_lp
        self.e_igp = e_igp
        self.e_tb = e_tb
        self.e_asn = e_asn
        self.e_rel = e_rel
        self.e_exp = e_exp
        self.e_push = e_push
        self.e_back_lp = e_back_lp
        self.loop_prev = loop_prev
        self.t1f = t1f
        self.tier1 = tier1
        self.direct_consts = direct_consts
        self.link_ids = link_ids
        self.link_index = {link: k for k, link in enumerate(link_ids)}
        self.link_provider_idx = [
            index[origin.provider_of(link)] for link in link_ids
        ]
        self.providers = sorted(set(self.link_provider_idx))
        self.num_edges = len(adj)
        self.paths: Dict[ASPath, ASPath] = {}
        # ``struct`` packs a list of signed ints about 2.5x faster than
        # ``array`` converts one; the bytes then fill the typed column.
        self.link_format = f"{n}h"
        self.lp_format = f"{n}i"
        return self

    # ------------------------------------------------------------------

    def _pass1_frontier(
        self,
        parent: "RouteTable",
        dropped: Sequence[int],
        direct_link: Sequence[int],
        opath: Sequence[Optional[ASPath]],
        noexp: Optional[Dict[int, Tuple[int, FrozenSet[ASN]]]],
    ) -> List[int]:
        """Visit positions pass 1 must evaluate, ascending, when seeded
        from ``parent``: the converged fixpoint of another configuration
        on this core.

        At a converged fixpoint, re-running any AS's decision on the
        final state reproduces its route.  The full sweep's pass 1
        evaluates each AS on its own seed, its neighbors' routes and
        this configuration's announcement; a neighbor that changes
        earlier in the pass pushes it (``pj > p`` in the loop).  Where
        the rest equals the parent's fixpoint the evaluation is a no-op,
        so only the ASes whose inputs may differ are scheduled:

        * an AS whose seed was dropped.  Its neighbors need not be: a
          kept seed never descends from a dropped one (it would share
          the dropped link and tail), so the dropped route was a losing
          candidate there, and the argmin without it is the same;
        * a provider whose direct announcement (link or path) changed;
        * the neighbors of a provider whose no-export entry changed;
        * the ASes of a link's old announced path when that path changed:
          a seed kept through it now has its transit part cut at another
          length, which only a loop check by one of those ASes can see.
        """
        off = self.off
        adj = self.adj
        index = self.index
        marked = set(dropped)
        parent_opath = parent.opath
        for i, parent_k in zip(self.providers, parent.direct):
            k = direct_link[i]
            if k != parent_k or (k >= 0 and opath[k] != parent_opath[k]):
                marked.add(i)
        for k, old in enumerate(parent_opath):
            if old is not None and opath[k] is not None and old != opath[k]:
                for asn in old:
                    i = index.get(asn)
                    if i is not None:
                        marked.add(i)
        parent_noexp = parent.noexp or {}
        child_noexp = noexp or {}
        for k in parent_noexp.keys() | child_noexp.keys():
            if parent_noexp.get(k) != child_noexp.get(k):
                i = self.link_provider_idx[k]
                marked.update(adj[off[i]:off[i + 1]])
        marked.discard(self.origin_idx)  # never evaluated
        return sorted(map(self.pos.__getitem__, marked))

    # ------------------------------------------------------------------

    def propagate(
        self,
        config: AnnouncementConfig,
        warm_start: Optional[Mapping[ASN, Route]],
        max_passes: int,
        strict: bool,
    ):
        """Propagate ``config`` to a fixpoint; mirror of the reference loop.

        Returns a :class:`~repro.bgp.simulator.RoutingOutcome` that is
        bit-identical (routes, catchments, passes, decision changes,
        convergence flag) to what the reference sweep produces for the
        same ``(config, warm_start)``.

        The sweep evaluates only scheduled ASes.  After AS ``i``'s route
        changes, neighbor ``j`` is scheduled only when

        * ``j``'s route was learned from ``i``, or
        * ``i``'s new route is exported to ``j`` and is not provably
          worse than ``j``'s route: ``j`` gives it a lower LocalPref
          (``e_back_lp``), or the same LocalPref and a strictly longer
          path.  A tie on both is scheduled, for the tiebreak to
          settle; a ``j`` with no route takes any exported route.

        Why this is exact: an AS that is not scheduled always holds the
        argmin of its current candidates.  That holds after its own
        evaluation, and a change at ``i`` that schedules nothing only
        removes ``i``'s old candidate, which was not ``j``'s route, so
        it had lost (or was filtered), and adds a new one that is
        filtered, not exported, or loses on LocalPref or length.  Keys
        are unique, so removing a losing candidate or adding one that
        loses leaves the argmin where it was.  The evaluation the
        reference sweep makes of an unscheduled AS would therefore
        re-select its route: a no-op, so routes, passes and decision
        changes stay identical.
        """
        from .simulator import RoutingOutcome  # local: avoid import cycle

        asns = self.asns
        n = self.n
        origin_asn = self.origin_asn
        link_index = self.link_index
        link_ids = self.link_ids
        num_links = len(link_ids)

        # -- per-configuration tables ----------------------------------
        opath: List[Optional[ASPath]] = [None] * num_links
        oset: List[Optional[FrozenSet[ASN]]] = [None] * num_links
        olen = [0] * num_links
        ot1: List[Optional[FrozenSet[ASN]]] = [None] * num_links
        tier1 = self.tier1
        # Every stored path goes through the core's intern table, so
        # equal paths are one object across all outcomes of the core.
        intern = self.paths.setdefault
        for link in config.announced:
            k = link_index[link]
            path = config.as_path_for_link(origin_asn, link)
            path = opath[k] = intern(path, path)
            olen[k] = len(path)
            oset[k] = frozenset(path)
            ot1[k] = frozenset(a for a in path if a in tier1)
        direct_link = [-1] * n
        for link in config.announced:
            k = link_index[link]
            direct_link[self.link_provider_idx[k]] = k
        noexp: Optional[Dict[int, Tuple[int, FrozenSet[ASN]]]] = None
        if config.no_export:
            noexp = {}
            for link, blocked in config.no_export.items():
                k = link_index[link]
                noexp[k] = (self.link_provider_idx[k], blocked)

        # -- route state ------------------------------------------------
        index = self.index
        table = warm_start if isinstance(warm_start, RouteTable) else None
        if table is not None and table.core is not self:
            table = None
        # Per link, whether every seed through it is known to end in
        # this configuration's announced path already (a table of this
        # core whose link announced the same path): the filter then
        # skips the per-route tail comparison.
        same_tail = [False] * num_links
        if table is not None:
            r_link = list(table.r_link)
            r_from = list(table.r_from)
            r_rel = list(table.r_rel)
            r_lp = list(table.r_lp)
            r_plen = list(table.r_plen)
            r_path = list(table.r_path)
            parent_opath = table.opath
            for k in range(num_links):
                fresh = opath[k]
                same_tail[k] = fresh is not None and fresh == parent_opath[k]
        else:
            r_link = [-1] * n
            r_from = [0] * n
            r_rel = [0] * n
            r_lp = [0] * n
            r_plen = [0] * n
            r_path = [None] * n
            if warm_start:
                origin_idx = self.origin_idx
                for asn, route in warm_start.items():
                    i = index.get(asn)
                    k = link_index.get(route.link_id)
                    if i is None or k is None or i == origin_idx:
                        continue
                    path = route.as_path
                    r_link[i] = k
                    r_from[i] = route.learned_from
                    r_rel[i] = int(route.relationship)
                    r_lp[i] = route.local_pref
                    r_plen[i] = len(path)
                    r_path[i] = intern(path, path)
        # The seed filter (contract shared with the reference sweep): a
        # seeded route must go through an announced link and still end
        # in exactly the AS-path this configuration announces through
        # it, else it is a stale state that can steer the fixpoint away
        # from the cold one.  It runs per link: the seeds of a link with
        # the same tail are kept outright, and the others are found by
        # ``index`` on ``r_link``.  ``dropped`` feeds a set, so its order
        # (link by link) does not matter.
        dropped: List[int] = []
        if warm_start:
            find = r_link.index
            for k in range(num_links):
                if same_tail[k]:
                    continue
                fresh = opath[k]
                cut_len = olen[k]
                i = -1
                while True:
                    try:
                        i = find(k, i + 1)
                    except ValueError:
                        break
                    if fresh is not None:
                        path = r_path[i]
                        cut = len(path) - cut_len
                        if cut >= 0 and path[cut:] == fresh:
                            continue
                    r_link[i] = -1
                    r_plen[i] = 0
                    r_path[i] = None
                    dropped.append(i)
        # The tail object each stored path was built from; identity lets
        # an unchanged re-selection skip rebuilding/comparing the tuple.
        r_tail: List[Optional[ASPath]] = [None] * n

        # -- local aliases for the hot loop ----------------------------
        off = self.off
        adj = self.adj
        e_neg_lp = self.e_neg_lp
        e_igp = self.e_igp
        e_tb = self.e_tb
        e_asn = self.e_asn
        e_rel = self.e_rel
        e_exp = self.e_exp
        e_push = self.e_push
        e_back_lp = self.e_back_lp
        loop_prev = self.loop_prev
        t1f = self.t1f
        direct_consts = self.direct_consts
        order = self.order
        pos = self.pos
        heappush = heapq.heappush
        heappop = heapq.heappop

        # Pass 1 schedules every AS, as the reference sweep visits every
        # AS, unless the seed is the converged fixpoint of a parent on
        # this core: then only the ASes whose inputs differ from the
        # parent's are scheduled (see ``_pass1_frontier``).  Later passes
        # only schedule ASes with a changed neighbor.
        in_cur = bytearray(n)
        if table is not None and table.converged:
            heap = self._pass1_frontier(
                table, dropped, direct_link, opath, noexp
            )
            for p in heap:
                in_cur[order[p]] = 1
        else:
            heap = list(range(len(order)))  # ascending: a valid heap
            for i in order:
                in_cur[i] = 1
        in_next = bytearray(n)
        nxt: List[int] = []

        passes = 0
        decision_changes = 0
        converged = False
        while passes < max_passes:
            passes += 1
            changed = 0
            while heap:
                p = heappop(heap)
                i = order[p]
                in_cur[i] = 0
                asn = asns[i]
                best_key: Optional[Tuple] = None
                b_link = -1
                b_from: ASN = 0
                b_rel = 0
                b_tail: Optional[ASPath] = None
                b_direct = False

                k = direct_link[i]
                if k >= 0:
                    neg_lp, igp, tb, drel = direct_consts[i]
                    ok = not (loop_prev[i] and asn in oset[k])
                    if ok and t1f[i] and drel == _CUSTOMER:
                        t1s = ot1[k]
                        if t1s and (len(t1s) > 1 or asn not in t1s):
                            ok = False
                    if ok:
                        best_key = (neg_lp, olen[k], igp, tb, origin_asn)
                        b_link = k
                        b_from = origin_asn
                        b_rel = drel
                        b_tail = opath[k]
                        b_direct = True

                for e in range(off[i], off[i + 1]):
                    j = adj[e]
                    lk = r_link[j]
                    if lk < 0:
                        continue
                    if not (e_exp[e] >> r_rel[j]) & 1:
                        continue
                    if noexp is not None:
                        t = noexp.get(lk)
                        if t is not None and j == t[0] and asn in t[1]:
                            continue
                    key = (
                        e_neg_lp[e],
                        r_plen[j] + 1,
                        e_igp[e],
                        e_tb[e],
                        e_asn[e],
                    )
                    # Losing candidates never need the (path-scanning)
                    # import filters: the argmin over accepted candidates
                    # is unchanged by skipping filters on keys that
                    # cannot win.  Keys are unique per neighbor, so the
                    # comparison is strict.
                    if best_key is not None and best_key <= key:
                        continue
                    jpath = r_path[j]
                    if loop_prev[i]:
                        if asn in jpath:
                            continue
                    else:
                        cut = len(jpath) - olen[lk]
                        if cut > 0 and asn in jpath[:cut]:
                            continue
                    rel = e_rel[e]
                    if t1f[i] and rel == _CUSTOMER:
                        leak = False
                        for a in jpath:
                            if a != asn and a in tier1:
                                leak = True
                                break
                        if leak:
                            continue
                    best_key = key
                    b_link = lk
                    b_from = e_asn[e]
                    b_rel = rel
                    b_tail = jpath
                    b_direct = False

                # ``sent``: the learned class of the new route (none for
                # a withdrawal), which decides whom it is exported to.
                if best_key is None:
                    if r_link[i] < 0:
                        continue
                    sent = 0
                    r_link[i] = -1
                    r_plen[i] = 0
                    r_path[i] = None
                    r_tail[i] = None
                else:
                    b_lp = -best_key[0]
                    same_scalars = (
                        r_link[i] == b_link
                        and r_from[i] == b_from
                        and r_rel[i] == b_rel
                        and r_lp[i] == b_lp
                    )
                    if same_scalars and b_tail is r_tail[i]:
                        continue
                    new_path = b_tail if b_direct else (b_from,) + b_tail
                    if same_scalars and new_path == r_path[i]:
                        r_tail[i] = b_tail
                        continue
                    if not b_direct:
                        new_path = intern(new_path, new_path)
                    sent = 1 << b_rel
                    r_link[i] = b_link
                    r_from[i] = b_from
                    r_rel[i] = b_rel
                    r_lp[i] = b_lp
                    r_plen[i] = len(new_path)
                    r_path[i] = new_path
                    r_tail[i] = b_tail

                changed += 1
                # Push a neighbor only when this change can move its
                # decision (see the docstring): its route was learned
                # here, or the new route is exported to it and is not
                # provably worse than its route (lower LocalPref, or
                # equal LocalPref and longer).
                plen = r_plen[i] + 1
                for e in range(off[i], off[i + 1]):
                    j = adj[e]
                    if r_link[j] < 0:
                        if not e_push[e] & sent:
                            continue  # no route, and none offered
                    elif r_from[j] != asn:
                        # j's route is not i's: only a new route that may
                        # beat it can move j's decision.
                        if not e_push[e] & sent:
                            continue
                        lp = e_back_lp[e]
                        j_lp = r_lp[j]
                        if lp < j_lp or (lp == j_lp and plen > r_plen[j]):
                            continue
                    pj = pos[j]
                    if pj < 0:
                        continue  # the origin is never evaluated
                    if pj > p:
                        # The reference sweep visits j later this pass
                        # and would see this change now.
                        if not in_cur[j]:
                            in_cur[j] = 1
                            heappush(heap, pj)
                    elif not in_next[j]:
                        in_next[j] = 1
                        nxt.append(pj)

            decision_changes += changed
            if changed == 0:
                converged = True
                break
            heap = nxt
            heap.sort()
            for pj in heap:
                j = order[pj]
                in_next[j] = 0
                in_cur[j] = 1
            nxt = []

        if not converged and strict:
            raise ConvergenceError(
                f"no fixpoint after {max_passes} passes for {config.describe()}"
            )

        # Lists in the sweep, typed columns in the table.  A path length
        # is 0 exactly where no route is held (a path holds at least the
        # origin), so the routed count is read off the length bytes.
        plen = bytearray(r_plen)
        routes = RouteTable(
            self, array("h", pack(self.link_format, *r_link)),
            array("I", r_from), bytearray(r_rel),
            array("i", pack(self.lp_format, *r_lp)), r_path,
            n - plen.count(0), converged,
            [direct_link[i] for i in self.providers], opath, noexp, plen,
        )
        return RoutingOutcome(
            config=config,
            routes=routes,
            # Sorted so the catchment dict's order (and every downstream
            # float sum over it) is independent of the string hash seed.
            catchments=RouteCatchments(routes, sorted(config.announced)),
            passes=passes,
            decision_changes=decision_changes,
            converged=converged,
            origin_asn=origin_asn,
            warm_started=bool(warm_start),
        )


class RouteTable(abc.Mapping):
    """Read-only ``Mapping[ASN, Route]`` over one fixpoint's final arrays.

    :meth:`CompiledTopology.propagate` returns its route state as this
    table instead of a dict of :class:`Route` objects: each lookup
    builds a fresh ``Route`` and the table keeps none, so an outcome
    nobody reads route by route never builds one.  Iteration follows
    the simulator's visit order, as the dict it replaces did.
    Membership, length, :meth:`link_of`, :meth:`path_of` and
    :meth:`forwarding_path` read the arrays.

    The scalar columns are typed (``r_link`` ``array('h')``, ``r_from``
    ``array('I')``, ``r_lp`` ``array('i')``, ``r_rel`` and ``r_plen`` one
    byte per AS) and ``r_path`` holds the core's interned path tuples.
    Plain lists read the same: a table built from them, with ``r_plen``
    left out, derives the lengths from ``r_path``.

    The table is also the warm-start seed of the configurations derived
    from it: besides the route arrays it keeps what the next fixpoint
    needs to tell which ASes' inputs changed (``converged``, ``direct``:
    the direct announcement link of each link provider, in
    :attr:`CompiledTopology.providers` order, the per-link announced
    paths and the no-export entries).  Outcomes are shared through the
    engine's cache, so the table does not support assignment.
    """

    __slots__ = (
        "core",
        "r_link",
        "r_from",
        "r_rel",
        "r_lp",
        "r_path",
        "r_plen",
        "converged",
        "direct",
        "opath",
        "noexp",
        "_len",
    )

    def __init__(
        self,
        core: CompiledTopology,
        r_link: Sequence[int],
        r_from: Sequence[ASN],
        r_rel: Sequence[int],
        r_lp: Sequence[int],
        r_path: List[Optional[ASPath]],
        routed: int,
        converged: bool,
        direct: List[int],
        opath: List[Optional[ASPath]],
        noexp: Optional[Dict[int, Tuple[int, FrozenSet[ASN]]]],
        r_plen: Optional[bytearray] = None,
    ) -> None:
        self.core = core
        self.r_link = r_link
        self.r_from = r_from
        self.r_rel = r_rel
        self.r_lp = r_lp
        self.r_path = r_path
        self.r_plen = r_plen if r_plen is not None else bytearray(
            len(path) if k >= 0 else 0 for k, path in zip(r_link, r_path)
        )
        self.converged = converged
        self.direct = direct
        self.opath = opath
        self.noexp = noexp
        self._len = routed

    def get(self, asn, default=None):
        i = self.core.index.get(asn)
        if i is None:
            return default
        k = self.r_link[i]
        if k < 0:
            return default
        return Route(
            as_path=self.r_path[i],
            link_id=self.core.link_ids[k],
            learned_from=self.r_from[i],
            relationship=_RELATIONSHIPS[self.r_rel[i]],
            local_pref=self.r_lp[i],
        )

    def link_of(self, asn: ASN) -> Optional[LinkId]:
        """The link ``asn`` routes to, or None when it has no route."""
        i = self.core.index.get(asn)
        if i is None:
            return None
        k = self.r_link[i]
        return self.core.link_ids[k] if k >= 0 else None

    def path_of(self, asn: ASN) -> Optional[ASPath]:
        """The AS path of ``asn``'s route (as the AS would export it to
        a collector, less itself), or None when it has no route."""
        i = self.core.index.get(asn)
        if i is None or self.r_link[i] < 0:
            return None
        return self.r_path[i]

    def forwarding_path(self, asn: ASN) -> ASPath:
        """Data-plane AS path from ``asn`` to the origin, following the
        next hops in ``r_from``; see
        :meth:`~repro.bgp.simulator.RoutingOutcome.forwarding_path`.

        Raises:
            SimulationError: if ``asn`` is not in the topology, if it or
                a next hop on its chain holds no route, or if the chain
                loops (only possible on non-converged outcomes).
        """
        index = self.core.index
        i = index.get(asn)
        if i is None:
            raise SimulationError(
                f"AS {asn} is not part of the simulated topology"
            )
        origin_asn = self.core.origin_asn
        if asn == origin_asn:
            return (asn,)
        r_link = self.r_link
        r_from = self.r_from
        hops: List[ASN] = [asn]
        for _ in range(self._len + 2):
            if r_link[i] < 0:
                current = hops[-1]
                raise SimulationError(
                    f"AS {current} holds no route toward the prefix"
                    if current == asn
                    else f"AS {current} (next hop of AS {asn}) holds no route "
                    "toward the prefix"
                )
            next_hop = r_from[i]
            hops.append(next_hop)
            if next_hop == origin_asn:
                return tuple(hops)
            i = index[next_hop]
        raise SimulationError(f"forwarding loop detected starting at AS {asn}")

    def __getitem__(self, asn: ASN) -> Route:
        route = self.get(asn)
        if route is None:
            raise KeyError(asn)
        return route

    def __contains__(self, asn: object) -> bool:
        i = self.core.index.get(asn)
        return i is not None and self.r_link[i] >= 0

    def __iter__(self):
        asns = self.core.asns
        r_link = self.r_link
        return (asns[i] for i in self.core.order if r_link[i] >= 0)

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return f"<RouteTable: {self._len} routes>"


class RouteCatchments(LazyCatchments):
    """A simulated outcome's catchments, read off its route table.

    Keyed by the announced links in sorted order.  The sets are built
    from ``r_link`` the first time one is read: each routed AS is added
    to its link's set in visit order, and the sets are then frozen, so
    every set iterates as the eager build's did.  :attr:`routes` answers
    which link one AS uses without building any set.
    """

    __slots__ = ("routes",)

    def __init__(self, routes: RouteTable, links: Sequence[LinkId]) -> None:
        super().__init__(links, routes)
        self.routes = routes

    def _build(self, routes: RouteTable):
        core = routes.core
        sets = {link: set() for link in self}
        by_index: List[Optional[set]] = [None] * len(core.link_ids)
        for link, members in sets.items():
            by_index[core.link_index[link]] = members
        asns = core.asns
        r_link = routes.r_link
        for i in core.order:
            k = r_link[i]
            if k >= 0:
                by_index[k].add(asns[i])
        return ((link, frozenset(members)) for link, members in sets.items())
