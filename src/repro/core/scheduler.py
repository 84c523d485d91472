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
"deploying" a configuration here is just a cluster refinement.  This
module holds the random baseline and the curve helpers; the maps come
from :class:`~repro.core.evidence.Evidence` and the greedy orders from
the strategy plugins::

    evidence = Evidence.build(configs, engine.simulate_many(configs))
    result = run_strategy(GreedyStrategy(), sorted(evidence.universe),
                          evidence.maps, max_steps=10, check_converged=False)

The volume-aware variant (paper §VIII future work) is
:class:`~repro.strategy.VolumeGreedyStrategy`, whose curve is the
traffic-weighted cost (``curve_metric=lambda s: weighted_cost(s, v)``).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Mapping, Optional, Sequence

from ..errors import SchedulingError
from ..types import ASN, Catchment, LinkId
from .clustering import ClusterState


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
    """Curves for many random deployment orders (Figure 8's baseline).

    Raises:
        SchedulingError: if ``num_sequences`` or ``max_steps`` is below 1.
    """
    if num_sequences < 1:
        raise SchedulingError("need at least one random sequence")
    if max_steps is not None and max_steps < 1:
        raise SchedulingError(f"max_steps must be at least 1, got {max_steps}")
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
