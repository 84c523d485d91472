"""BGP substrate: announcements, routes, policies, and propagation."""

from .announcement import DEFAULT_PREPEND_COUNT, AnnouncementConfig, anycast_all
from .convergence import (
    DEFAULT_MRAI_SECONDS,
    ConvergenceEngine,
    ConvergenceParams,
    ConvergenceResult,
)
from .policy import PolicyModel
from .route import Route, best_route, stable_tiebreak
from .simulator import DEFAULT_MAX_PASSES, RoutingOutcome, RoutingSimulator


def make_engine(simulator: RoutingSimulator, **kwargs):
    """Wrap a :class:`RoutingSimulator` in a caching engine.

    Thin convenience hook so callers holding only a BGP-layer simulator
    can opt into memoized simulation without importing :mod:`repro.core`
    directly.  Keyword arguments (``warm_start``, ``cache_size``, ...)
    pass through to :class:`repro.core.engine.SimulationEngine`.
    """
    from ..core.engine import SimulationEngine

    return SimulationEngine(simulator, **kwargs)


__all__ = [
    "AnnouncementConfig",
    "anycast_all",
    "DEFAULT_PREPEND_COUNT",
    "PolicyModel",
    "Route",
    "best_route",
    "stable_tiebreak",
    "RoutingOutcome",
    "RoutingSimulator",
    "DEFAULT_MAX_PASSES",
    "ConvergenceEngine",
    "ConvergenceParams",
    "ConvergenceResult",
    "DEFAULT_MRAI_SECONDS",
    "make_engine",
]
