"""The fixed name table of the built-in traceback strategies.

Each built-in has a stable name (``"greedy"``, ``"bgpeek"``, …) so the
CLI, the live controller's policy, checkpoints, and the compare harness
can all refer to it by string.  A strategy outside this table is an
object: bind it and drive it with :func:`~repro.strategy.run_strategy`.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..errors import StrategyError
from .base import TracebackStrategy
from .builtin import (
    BisectStrategy,
    GreedyStrategy,
    PoisonWalkStrategy,
    RandomStrategy,
    ScheduleOrderStrategy,
)

_STRATEGIES: Dict[str, Type[TracebackStrategy]] = {
    "bgpeek": PoisonWalkStrategy,
    "bisect": BisectStrategy,
    "greedy": GreedyStrategy,
    "random": RandomStrategy,
    "schedule": ScheduleOrderStrategy,
}


def available_strategies() -> List[str]:
    """Built-in strategy names, sorted for deterministic display."""
    return sorted(_STRATEGIES)


def strategy_class(name: str) -> Type[TracebackStrategy]:
    """The built-in class for ``name``.

    Raises:
        StrategyError: for unknown names, listing what is available.
    """
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise StrategyError(
            f"unknown strategy {name!r}; "
            f"available: {', '.join(available_strategies())}"
        ) from None


def make_strategy(name: str, seed: int = 0) -> TracebackStrategy:
    """Instantiate a built-in strategy by name."""
    return strategy_class(name)(seed=seed)
