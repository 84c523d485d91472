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
]
