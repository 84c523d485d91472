"""Announcement scheduling for fast localization (paper §V-C, Figure 8).

When catchments have been measured ahead of an attack, the origin can
deploy configurations in an order that shrinks clusters as fast as
possible.  The paper compares:

* **random order** — configurations deployed in a random sequence (the
  shaded baseline of Figure 8, over 30,000 sequences), and
* **the iterative algorithm** — greedily deploy the configuration that
  minimizes the resulting mean cluster size at each step (the dashed
  line; 3.5 vs 7.8 mean ASes after ten configurations in the paper).

Both operate on pre-measured per-configuration catchment maps, so
"deploying" a configuration here is just a cluster refinement.

The volume-aware variant (paper §VIII future work) weights each cluster
by its estimated share of spoofed traffic, prioritizing splits of the
clusters that matter during an attack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SchedulingError
from ..types import ASN, Catchment, LinkId
from .clustering import ClusterState

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..bgp.announcement import AnnouncementConfig
    from ..strategy import TracebackStrategy
    from .engine import SimulationEngine


def measured_catchment_history(
    engine: "SimulationEngine",
    configs: Iterable["AnnouncementConfig"],
    universe: Optional[Iterable[ASN]] = None,
) -> Tuple[List[ASN], List[Mapping[LinkId, Catchment]]]:
    """Pre-measure per-configuration catchments through an engine.

    The §V-C schedulers operate on pre-measured catchment maps; this is
    the measuring step, routed through the (cached, possibly parallel)
    :class:`~repro.core.engine.SimulationEngine` so configurations the
    pipeline already deployed are never simulated again.

    Args:
        engine: simulation engine over the testbed.
        configs: configurations to measure.
        universe: sources to restrict catchments to; defaults to the
            coverage of the first configuration (the paper's §IV-d rule).

    Returns:
        ``(universe, catchment_history)`` ready for
        :class:`GreedyScheduler` and friends.
    """
    config_list = list(configs)
    if not config_list:
        raise SchedulingError("no configurations to measure")
    outcomes = engine.simulate_many(config_list)
    members = (
        frozenset(universe) if universe is not None else outcomes[0].covered_ases
    )
    history: List[Mapping[LinkId, Catchment]] = [
        {
            link: frozenset(catchment & members)
            for link, catchment in outcome.catchments.items()
        }
        for outcome in outcomes
    ]
    return sorted(members), history


def refinement_gain(
    state: ClusterState, catchments: Iterable[Iterable[ASN]]
) -> int:
    """Splits that refining ``state`` with ``catchments`` would produce.

    Evaluated on a copy — ``state`` is left untouched.  This is the
    utility the §V-C greedy scheduler maximizes per step, shared with the
    live controller's adaptive reordering.  It is the reference
    definition: strategies compute it for all candidates at once with
    :class:`repro.strategy.kernel.LabelMatrix`.
    """
    working = state.copy()
    splits = 0
    for members in catchments:
        splits += working.refine(members)
    return splits


def mean_cluster_size_curve(
    universe: Sequence[ASN],
    catchment_history: Sequence[Mapping[LinkId, Catchment]],
    order: Optional[Sequence[int]] = None,
) -> List[float]:
    """Mean cluster size after each deployed configuration.

    Args:
        universe: sources to partition.
        catchment_history: per-configuration catchment maps.
        order: deployment order as indices into ``catchment_history``
            (defaults to given order).

    Returns:
        ``curve[i]`` = mean cluster size after deploying ``i + 1``
        configurations.
    """
    indices = list(order) if order is not None else list(range(len(catchment_history)))
    if sorted(indices) != sorted(set(indices)) or any(
        not 0 <= i < len(catchment_history) for i in indices
    ):
        raise SchedulingError("order must be unique valid indices")
    state = ClusterState(universe)
    curve: List[float] = []
    for index in indices:
        state.refine_with_catchments(catchment_history[index])
        curve.append(state.mean_size())
    return curve


def random_schedule_curves(
    universe: Sequence[ASN],
    catchment_history: Sequence[Mapping[LinkId, Catchment]],
    num_sequences: int = 100,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> List[List[float]]:
    """Curves for many random deployment orders (Figure 8's baseline)."""
    if num_sequences < 1:
        raise SchedulingError("need at least one random sequence")
    rng = random.Random(seed)
    steps = len(catchment_history) if max_steps is None else min(
        max_steps, len(catchment_history)
    )
    curves: List[List[float]] = []
    for _ in range(num_sequences):
        order = list(range(len(catchment_history)))
        rng.shuffle(order)
        curves.append(
            mean_cluster_size_curve(universe, catchment_history, order[:steps])
        )
    return curves


class GreedyScheduler:
    """The paper's iterative algorithm: always deploy the best next config.

    Args:
        universe: sources to partition.
        catchment_history: pre-measured catchment maps, one per
            configuration.
    """

    def __init__(
        self,
        universe: Sequence[ASN],
        catchment_history: Sequence[Mapping[LinkId, Catchment]],
    ) -> None:
        if not catchment_history:
            raise SchedulingError("no configurations to schedule")
        self.universe = list(universe)
        self.catchment_history = list(catchment_history)
        # Pre-restrict catchments to the universe for cheap gain evaluation.
        universe_set = set(universe)
        self._restricted: List[List[Tuple[LinkId, frozenset]]] = [
            [
                (link, frozenset(catchment & universe_set))
                for link, catchment in sorted(catchments.items())
            ]
            for catchments in self.catchment_history
        ]

    @classmethod
    def from_engine(
        cls,
        engine: "SimulationEngine",
        configs: Iterable["AnnouncementConfig"],
        universe: Optional[Iterable[ASN]] = None,
        **kwargs,
    ) -> "GreedyScheduler":
        """Build a scheduler by measuring ``configs`` through ``engine``.

        Configurations already simulated by the pipeline (or by an
        earlier scheduler) are cache hits — zero extra fixpoints.  Extra
        keyword arguments pass through to the constructor (e.g.
        ``volume_by_as`` for :class:`VolumeAwareGreedyScheduler`).
        """
        members, history = measured_catchment_history(engine, configs, universe)
        return cls(members, history, **kwargs)

    def _make_strategy(self) -> "TracebackStrategy":
        """The plugin this scheduler drives (hook for subclasses)."""
        from ..strategy import GreedyStrategy

        return GreedyStrategy()

    def run(
        self, max_steps: Optional[int] = None
    ) -> Tuple[List[int], List[float]]:
        """Greedy deployment; returns (order, mean-size curve).

        Stops early when no remaining configuration splits anything.
        Delegates to the ``greedy`` strategy plugin bound to the
        pre-restricted catchment maps — with no volume evidence its
        lexicographic score reduces exactly to the historical split-gain
        greedy, so order and curve are bit-identical to the pre-plugin
        scheduler.
        """
        from ..strategy import run_strategy

        strategy = self._make_strategy()
        strategy.bind([dict(pairs) for pairs in self._restricted])
        result = run_strategy(
            strategy,
            self.universe,
            max_steps=max_steps,
            curve_metric=self._curve_metric(),
            check_converged=False,
        )
        return result.order, result.curve

    def _curve_metric(self) -> Optional[Callable[[ClusterState], float]]:
        """Per-step curve value; None = mean cluster size."""
        return None


class VolumeAwareGreedyScheduler(GreedyScheduler):
    """Future-work variant: minimize traffic-weighted mean cluster size.

    Clusters inferred to carry more spoofed traffic get proportionally
    more utility from being split (paper §VIII: "jointly optimizing for
    cluster size and traffic volume").  The returned curve reports the
    weighted cost after each step.

    Delegates to the ``volume-greedy`` strategy plugin, which scores
    candidates by the lexicographic ``(weighted reduction, split gain)``
    tuple — so with an empty or all-zero volume estimate the schedule
    falls back to the unweighted §V-C split gain instead of dead-stopping
    with an empty order (the historical ``cost < best_cost`` bug, where
    a degenerate weighted cost of zero could never strictly improve).

    Args:
        universe: sources to partition.
        catchment_history: pre-measured catchment maps.
        volume_by_as: estimated per-AS spoofed volume (e.g. from honeypot
            observations attributed by an earlier localization pass).
    """

    def __init__(
        self,
        universe: Sequence[ASN],
        catchment_history: Sequence[Mapping[LinkId, Catchment]],
        volume_by_as: Mapping[ASN, float],
    ) -> None:
        super().__init__(universe, catchment_history)
        self.volume_by_as = dict(volume_by_as)

    def _weighted_cost(self, state: ClusterState) -> float:
        """Σ over clusters of cluster volume × cluster size."""
        from ..strategy import weighted_cost

        return weighted_cost(state, self.volume_by_as)

    def _make_strategy(self) -> "TracebackStrategy":
        from ..strategy import VolumeGreedyStrategy

        return VolumeGreedyStrategy(volume_by_as=self.volume_by_as)

    def _curve_metric(self) -> Optional[Callable[[ClusterState], float]]:
        return self._weighted_cost


def percentile_curve(
    curves: Sequence[Sequence[float]], percentile: float
) -> List[float]:
    """Per-step percentile across many curves (Figure 8's bands).

    Curves may differ in length — a schedule that converged early simply
    stopped deploying, and its metric holds at the final value from then
    on.  Short curves are therefore padded with their last value out to
    the longest curve (rather than truncating every curve to the
    shortest, which silently dropped the tail of long runs whenever one
    sequence converged quickly).  Empty curves contribute nothing.
    """
    if not curves:
        raise SchedulingError("no curves to aggregate")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    length = max(len(curve) for curve in curves)
    result: List[float] = []
    for step in range(length):
        values = sorted(
            curve[step] if step < len(curve) else curve[-1]
            for curve in curves
            if curve
        )
        if not values:
            break
        rank = (percentile / 100.0) * (len(values) - 1)
        low = int(rank)
        high = min(low + 1, len(values) - 1)
        if values[low] == values[high]:
            result.append(float(values[low]))
            continue
        fraction = rank - low
        result.append(values[low] * (1.0 - fraction) + values[high] * fraction)
    return result
