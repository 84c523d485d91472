"""Serial, memoizing simulation engine for announcement schedules.

The paper's workflow deploys ~705 announcement configurations and
intersects their catchments; every consumer in this repo — the
:class:`~repro.core.pipeline.SpoofTracker` schedule, the §V-B
:class:`~repro.core.refinement.LargeClusterSplitter`, the §V-C
schedulers, and the benchmark harness — ultimately funnels through
"simulate this configuration".  :class:`SimulationEngine` makes that hot
path fast two ways:

1. **Memoization** — outcomes are cached in an LRU keyed by the
   *canonical* form of the configuration
   (:meth:`~repro.bgp.announcement.AnnouncementConfig.key`, which
   ignores label/phase metadata), so no configuration is ever simulated
   twice — not by a repeated schedule, not by the splitter re-deploying
   the anycast baseline, not by a scheduler replaying history.
2. **Warm starts** — a configuration that differs from an
   already-computed one only by prepending/poisoning/communities (same
   announcement set) or by dropped links (subset of all links) seeds its
   fixpoint from that *parent* outcome's routes instead of the empty
   state, cutting Gauss-Seidel passes on the long prepend/poison phases.

Configurations run one at a time, in schedule order, in-process: the
paper deploys them one at a time too (§IV-a), and warm-start parent
chains are sequential.

Determinism: the warm-start parent of a configuration is a pure function
of the configuration itself (never of cache contents — a missing parent
is simulated on demand), so every outcome is a deterministic function of
``(simulator, config)``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..bgp.announcement import AnnouncementConfig
from ..bgp.simulator import RoutingOutcome, RoutingSimulator
from ..errors import SimulationError

#: Default bound on memoized outcomes.  An outcome holds its fixpoint's
#: route table (typed columns of 12 bytes per AS, a list of shared path
#: tuples, no ``Route``): the full ``paper`` schedule retains ~40 KB per
#: outcome (tracemalloc, 597 outcomes over 1,831 ASes at seed 0), so
#: the default comfortably fits the paper's 705-config schedule on
#: paper-scale topologies while bounding worst-case memory.
DEFAULT_CACHE_SIZE = 4096

ConfigKey = Tuple


@dataclass
class EngineStats:
    """Counters accumulated by a :class:`SimulationEngine`.

    Every *count* here is a deterministic function of the seeded
    scenario, which is what lets the observability layer treat them as
    deterministic metrics.  ``wall_time`` is measured and varies run to
    run.

    Attributes:
        configs_requested: configurations asked for (hits + misses).
        configs_simulated: Gauss-Seidel fixpoints run, including
            warm-start parents simulated on demand.
        cache_hits: requests served from the outcome cache (including
            duplicates within one batch).
        warm_starts: simulations seeded from a parent outcome.
        passes_saved: estimated Gauss-Seidel passes avoided by warm
            starts — Σ max(0, parent passes − warm-started passes); the
            parent's cold pass count is the stand-in for what the child
            would have cost cold.
        wall_time: seconds spent inside :meth:`SimulationEngine.simulate`
            / :meth:`SimulationEngine.simulate_many` /
            :meth:`SimulationEngine.iter_simulate`.  Measured with the
            monotonic clock over disjoint windows — consumer time between
            ``iter_simulate`` yields is never attributed to the engine.
    """

    configs_requested: int = 0
    configs_simulated: int = 0
    cache_hits: int = 0
    warm_starts: int = 0
    passes_saved: int = 0
    wall_time: float = 0.0

    def copy(self) -> "EngineStats":
        """Independent snapshot of the current counters."""
        return replace(self)

    def since(self, before: "EngineStats") -> "EngineStats":
        """Counters accumulated after the ``before`` snapshot was taken."""
        return EngineStats(
            configs_requested=self.configs_requested - before.configs_requested,
            configs_simulated=self.configs_simulated - before.configs_simulated,
            cache_hits=self.cache_hits - before.cache_hits,
            warm_starts=self.warm_starts - before.warm_starts,
            passes_saved=self.passes_saved - before.passes_saved,
            wall_time=self.wall_time - before.wall_time,
        )

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"{self.configs_simulated} simulated / "
            f"{self.configs_requested} requested, "
            f"{self.cache_hits} cache hits, "
            f"{self.warm_starts} warm starts "
            f"(~{self.passes_saved} passes saved), "
            f"{self.wall_time:.2f}s"
        )


def warm_start_parent(
    config: AnnouncementConfig, all_links: Sequence[str]
) -> Optional[AnnouncementConfig]:
    """The configuration whose fixpoint seeds ``config``'s, or None.

    * A configuration using prepending, poisoning, or no-export
      communities is seeded from the plain locations configuration with
      the same announcement set (same routes everywhere the manipulation
      does not bite).
    * A locations configuration announcing a proper subset of the links
      is seeded from the anycast-all configuration (only sources behind
      the withdrawn links move).
    * The anycast-all configuration itself has no parent (cold start).

    The parent depends only on the configuration and the origin's link
    set — never on what happens to be cached — so warm-started results
    are reproducible regardless of what ran before.
    """
    if config.prepended or config.poisoned or config.no_export:
        return AnnouncementConfig(
            announced=config.announced, label="warm-parent"
        )
    full = frozenset(all_links)
    if config.announced != full:
        return AnnouncementConfig(announced=full, label="warm-root")
    return None


def require_serial(workers: int) -> None:
    """Reject a worker count other than 1: simulation runs in-process."""
    if workers != 1:
        raise SimulationError(
            f"workers={workers}: simulation runs in-process, only 1 is supported"
        )


class SimulationEngine:
    """Cached, warm-starting front end to a :class:`RoutingSimulator`.

    Args:
        simulator: the simulator to run configurations through.
        warm_start: seed fixpoints from parent outcomes (see
            :func:`warm_start_parent`).
        cache_size: bound on memoized outcomes (LRU eviction).
        tracer: optional :class:`~repro.obs.tracing.Tracer`.  When armed,
            each batch with cache misses opens a deterministic
            ``engine_batch`` span with one ``simulate`` / ``warm_start``
            child span per simulated miss, carrying its fixpoint count.

    The engine is safe to share across every consumer of one testbed —
    sharing is the point: the splitter's baseline is the schedule's
    anycast-all configuration, already cached.  It is also a context
    manager; :meth:`close` holds no resources and exists for callers
    that release engines uniformly.
    """

    def __init__(
        self,
        simulator: RoutingSimulator,
        warm_start: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        tracer=None,
    ) -> None:
        if cache_size < 1:
            raise SimulationError("cache_size must be at least 1")
        self.simulator = simulator
        self.warm_start = warm_start
        self.cache_size = cache_size
        self.tracer = tracer
        self.stats = EngineStats()
        self._cache: "OrderedDict[ConfigKey, RoutingOutcome]" = OrderedDict()

    # -- cache ----------------------------------------------------------

    def _cache_get(self, key: ConfigKey) -> Optional[RoutingOutcome]:
        outcome = self._cache.get(key)
        if outcome is not None:
            self._cache.move_to_end(key)
        return outcome

    def _cache_put(self, key: ConfigKey, outcome: RoutingOutcome) -> None:
        self._cache[key] = outcome
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def cached_outcome(
        self, config: AnnouncementConfig
    ) -> Optional[RoutingOutcome]:
        """The cached outcome for ``config``, or None (never simulates)."""
        return self._cache_get(config.key())

    def clear_cache(self) -> None:
        """Drop every memoized outcome."""
        self._cache.clear()

    # -- simulation -----------------------------------------------------

    def simulate(self, config: AnnouncementConfig) -> RoutingOutcome:
        """Simulate one configuration (served from cache when possible)."""
        return self.simulate_many([config])[0]

    def simulate_many(
        self, configs: Sequence[AnnouncementConfig]
    ) -> List[RoutingOutcome]:
        """Simulate a batch; results return in the batch's order.

        Cache hits (including duplicate configurations within the batch)
        are never re-simulated; misses run in batch order.
        """
        start = time.perf_counter()
        self.stats.configs_requested += len(configs)

        # Partition into hits and first-occurrence misses.
        by_key: Dict[ConfigKey, RoutingOutcome] = {}
        misses: Dict[ConfigKey, AnnouncementConfig] = {}
        keys: List[ConfigKey] = []
        for config in configs:
            key = config.key()
            keys.append(key)
            if key in by_key or key in misses:
                self.stats.cache_hits += 1
                continue
            cached = self._cache_get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                by_key[key] = cached
                continue
            misses[key] = config

        if misses:
            with self._span("engine_batch", misses=len(misses)):
                for key, config in misses.items():
                    by_key[key] = self._simulate_miss(key, config)

        self.stats.wall_time += time.perf_counter() - start
        return [by_key[key] for key in keys]

    def iter_simulate(self, configs: Sequence[AnnouncementConfig]):
        """Yield outcomes in schedule order *as they are computed*.

        Unlike :meth:`simulate_many`, consumers see the first
        configuration's catchments without waiting for the whole batch —
        the contract the live attribution runtime depends on.  Each
        configuration is its own :meth:`simulate` call, so time the
        consumer spends between yields is never charged to the engine.
        """
        for config in configs:
            yield self.simulate(config)

    def _span(self, name: str, **attrs):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    def _simulate_miss(
        self, key: ConfigKey, config: AnnouncementConfig
    ) -> RoutingOutcome:
        already = self._cache_get(key)
        if already is not None:
            # Simulated en passant as a warm-start parent of an earlier
            # miss in this batch: no span, nothing new charged.
            return already
        name = "simulate"
        if (
            self.tracer is not None
            and self.warm_start
            and warm_start_parent(config, self.simulator.origin.link_ids)
            is not None
        ):
            name = "warm_start"
        with self._span(name) as span:
            outcome, fixpoints, warms, saved = self._simulate_resolved(config)
            if span is not None:
                span.set("configs", fixpoints)
        self.stats.configs_simulated += fixpoints
        self.stats.warm_starts += warms
        self.stats.passes_saved += saved
        self._cache_put(key, outcome)
        return outcome

    def _simulate_resolved(
        self, config: AnnouncementConfig
    ) -> Tuple[RoutingOutcome, int, int, int]:
        """Simulate ``config``, resolving its warm-start parent via the cache.

        Returns ``(outcome, fixpoints_run, warm_starts, passes_saved)``.
        A missing parent is simulated (and cached) on demand, so the
        result never depends on cache contents.
        """
        parent = None
        if self.warm_start:
            parent = warm_start_parent(config, self.simulator.origin.link_ids)
        if parent is None:
            return self.simulator.simulate(config), 1, 0, 0
        fixpoints = 0
        parent_key = parent.key()
        parent_outcome = self._cache_get(parent_key)
        if parent_outcome is None:
            # Parents simulated on demand are full-fledged results: cache
            # them so the schedule (which usually contains them) hits.
            parent_outcome, fixpoints, _, _ = self._simulate_resolved(parent)
            self._cache_put(parent_key, parent_outcome)
        outcome = self.simulator.simulate(config, warm_start=parent_outcome.routes)
        saved = max(0, parent_outcome.passes - outcome.passes)
        return outcome, fixpoints + 1, 1, saved

    def close(self) -> None:
        """Nothing to release; kept so engines can be closed uniformly."""

    def __enter__(self) -> "SimulationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
