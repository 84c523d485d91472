"""Traceback strategies (propose / observe / converged).

The batch tracker, the §V-C schedulers, and the live adaptive
controller all drive interchangeable :class:`TracebackStrategy`
objects.  The five built-ins (``greedy``, ``schedule``, ``random``,
``bisect``, ``bgpeek``) are named in one fixed table;
``spooftrack compare`` races them on one seeded testbed with a shared
simulation cache.  Any other strategy is an object driven through
:func:`run_strategy`.
"""

from .base import (
    NO_SPLIT_REASON,
    NOISE_FLOOR,
    StrategyRunResult,
    TracebackStrategy,
    run_strategy,
    weighted_cost,
    weighted_split_score,
)
from .builtin import (
    BisectStrategy,
    GreedyStrategy,
    PoisonWalkStrategy,
    RandomStrategy,
    ScheduleOrderStrategy,
)
from .compare import (
    CompareReport,
    StrategyOutcome,
    compare_strategies,
    configs_to_convergence,
)
from .registry import (
    available_strategies,
    make_strategy,
    strategy_class,
)

__all__ = [
    "NO_SPLIT_REASON",
    "NOISE_FLOOR",
    "BisectStrategy",
    "CompareReport",
    "GreedyStrategy",
    "PoisonWalkStrategy",
    "RandomStrategy",
    "ScheduleOrderStrategy",
    "StrategyOutcome",
    "StrategyRunResult",
    "TracebackStrategy",
    "available_strategies",
    "compare_strategies",
    "configs_to_convergence",
    "make_strategy",
    "run_strategy",
    "strategy_class",
    "weighted_cost",
    "weighted_split_score",
]
