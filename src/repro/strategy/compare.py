"""``spooftrack compare``: race traceback strategies on one testbed.

Every contestant runs over the *same* seeded testbed, schedule, and
pre-measured catchment maps, streamed through one shared
:class:`~repro.core.engine.SimulationEngine` — the measurement pass is
paid once and every strategy decision afterwards is pure refinement
arithmetic, so a race of the five built-ins costs barely more than a lone
greedy run.  The report ranks strategies by final localization quality
(mean cluster size), then by configurations needed to reach it.

``configs_to_convergence`` is strategy-independent: the first step at
which a strategy's mean-cluster-size curve reaches its final value
(curves are non-increasing, so nothing after that step improved the
partition).  Dwell minutes charge the campaign timeline's per-config
dwell for every *deployed* configuration, converged or not — deploying
past convergence is exactly the waste the paper's §V-C ordering avoids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.configgen import ScheduleParams, generate_schedule
from ..core.engine import EngineStats, SimulationEngine
from ..core.evidence import Evidence
from ..core.timeline import CampaignTimeline
from ..errors import StrategyError
from ..obs import Observability, ensure_parent_dir
from .base import StrategyRunResult, run_strategy
from .registry import available_strategies, make_strategy


@dataclass(frozen=True)
class StrategyOutcome:
    """One contestant's results on the shared testbed."""

    strategy: str
    order: List[int]
    curve: List[float]
    stop_reason: str
    configs_deployed: int
    configs_to_convergence: int
    dwell_minutes: float
    final_clusters: int
    final_mean_cluster_size: float
    final_max_cluster_size: int

    def as_dict(self) -> Dict:
        """JSON-safe dump (round-trips through the ``--json`` artifact)."""
        return {
            "strategy": self.strategy,
            "order": list(self.order),
            "curve": [round(value, 6) for value in self.curve],
            "stop_reason": self.stop_reason,
            "configs_deployed": self.configs_deployed,
            "configs_to_convergence": self.configs_to_convergence,
            "dwell_minutes": round(self.dwell_minutes, 3),
            "final_clusters": self.final_clusters,
            "final_mean_cluster_size": round(
                self.final_mean_cluster_size, 6
            ),
            "final_max_cluster_size": self.final_max_cluster_size,
        }


@dataclass
class CompareReport:
    """Everything :func:`compare_strategies` produced.

    ``outcomes`` is ranked: best final mean cluster size first, ties
    broken by fewer configurations to convergence, then dwell, then
    name — a total, deterministic order.
    """

    seed: int
    universe_size: int
    candidate_configs: int
    outcomes: List[StrategyOutcome] = field(default_factory=list)
    engine_stats: Optional[EngineStats] = None

    def table(self) -> str:
        """Fixed-width ranking table for terminal display."""
        header = (
            f"{'rank':>4} {'strategy':<14} {'deployed':>8} "
            f"{'converged@':>10} {'dwell(min)':>10} {'mean':>7} "
            f"{'max':>5}  stop reason"
        )
        lines = [header, "-" * len(header)]
        for rank, outcome in enumerate(self.outcomes, start=1):
            lines.append(
                f"{rank:>4} {outcome.strategy:<14} "
                f"{outcome.configs_deployed:>8d} "
                f"{outcome.configs_to_convergence:>10d} "
                f"{outcome.dwell_minutes:>10.1f} "
                f"{outcome.final_mean_cluster_size:>7.2f} "
                f"{outcome.final_max_cluster_size:>5d}  "
                f"{outcome.stop_reason}"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        """JSON-safe dump of the whole race."""
        return {
            "seed": self.seed,
            "universe_size": self.universe_size,
            "candidate_configs": self.candidate_configs,
            "strategies": [outcome.as_dict() for outcome in self.outcomes],
            "engine": (
                self.engine_stats.summary()
                if self.engine_stats is not None
                else None
            ),
        }

    def write_json(self, path: str) -> str:
        """Write the ``--json`` artifact; returns ``path``."""
        ensure_parent_dir(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def configs_to_convergence(curve: Sequence[float]) -> int:
    """First step at which the (non-increasing) curve hits its final value."""
    if not curve:
        return 0
    final = curve[-1]
    for step, value in enumerate(curve):
        if value == final:
            return step + 1
    return len(curve)


def _rank_key(outcome: StrategyOutcome):
    return (
        outcome.final_mean_cluster_size,
        outcome.configs_to_convergence,
        outcome.dwell_minutes,
        outcome.strategy,
    )


def compare_strategies(
    testbed,
    strategies: Optional[Sequence[str]] = None,
    max_configs: Optional[int] = None,
    seed: Optional[int] = None,
    timeline: Optional[CampaignTimeline] = None,
    obs: Optional[Observability] = None,
    engine: Optional[SimulationEngine] = None,
) -> CompareReport:
    """Race built-in strategies on one seeded testbed.

    Args:
        testbed: a wired :class:`~repro.core.pipeline.Testbed`.
        strategies: built-in names to race, in given order (duplicates
            collapse to the first occurrence; default: every built-in,
            sorted).
        max_configs: truncate the candidate schedule.
        seed: seed for strategies with internal randomness (default:
            the testbed spec's seed, else 0).
        timeline: dwell-cost model (defaults to the paper's).
        obs: optional observability bundle — arms a ``premeasure`` span,
            one ``race`` span per contestant, and per-strategy counters
            (``repro_compare_configs_total{strategy=...}``).
        engine: pre-built engine to measure through (shared cache);
            a passed-in engine is not closed here.

    Raises:
        StrategyError: if no strategy is named or ``max_configs`` is
            below 1.
    """
    if max_configs is not None and max_configs < 1:
        raise StrategyError(f"max_configs must be at least 1, got {max_configs}")
    names: List[str] = []
    for name in strategies if strategies is not None else available_strategies():
        if name not in names:
            names.append(name)
    if not names:
        raise StrategyError("no strategies to compare")
    obs = obs if obs is not None else Observability()
    timeline = timeline or CampaignTimeline()
    if seed is None:
        seed = testbed.spec.seed if testbed.spec is not None else 0

    schedule = generate_schedule(
        testbed.origin, testbed.graph, ScheduleParams()
    )
    if max_configs is not None:
        schedule = schedule[:max_configs]

    owns_engine = engine is None
    if engine is None:
        engine = SimulationEngine(
            testbed.simulator,
            tracer=obs.tracer,
        )
    stats_before = engine.stats.copy()
    try:
        # One measurement pass, shared by every contestant.
        with obs.phase("premeasure", configs=len(schedule)) as span:
            with obs.capture():
                evidence = Evidence.build(
                    schedule, engine.simulate_many(schedule)
                )
            if span is not None:
                span.set("universe", len(evidence.universe))
        engine_stats = engine.stats.since(stats_before)
    finally:
        if owns_engine:
            engine.close()

    outcomes: List[StrategyOutcome] = []
    for name in names:
        strategy = make_strategy(name, seed=seed)
        with obs.phase("race", strategy=name) as span:
            result: StrategyRunResult = run_strategy(
                strategy,
                sorted(evidence.universe),
                evidence.maps,
                schedule=schedule,
            )
            if span is not None:
                span.set("configs", len(result.order))
                span.set("stop", result.stop_reason)
        outcome = StrategyOutcome(
            strategy=name,
            order=result.order,
            curve=result.curve,
            stop_reason=result.stop_reason,
            configs_deployed=len(result.order),
            configs_to_convergence=configs_to_convergence(result.curve),
            dwell_minutes=len(result.order) * timeline.minutes_per_config,
            final_clusters=len(result.final_sizes),
            final_mean_cluster_size=result.final_mean_size,
            final_max_cluster_size=result.final_max_size,
        )
        outcomes.append(outcome)
        if obs.registry is not None:
            obs.registry.counter(
                "repro_compare_configs_total",
                help="configurations deployed per compared strategy",
                labels={"strategy": name},
            ).inc(len(result.order))
        if obs.bus is not None:
            obs.bus.publish(
                "compare",
                strategy=name,
                configs=len(result.order),
                mean_cluster_size=outcome.final_mean_cluster_size,
                stop_reason=result.stop_reason,
            )

    outcomes.sort(key=_rank_key)
    return CompareReport(
        seed=seed,
        universe_size=len(evidence.universe),
        candidate_configs=len(schedule),
        outcomes=outcomes,
        engine_stats=engine_stats,
    )
