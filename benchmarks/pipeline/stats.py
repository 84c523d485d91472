"""Order statistics shared by the harness, its result files and ``--compare``.

Stdlib only, so importing the harness stays cheap.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.  A tail is reported at the
#: highest one that still has at least :data:`MIN_BEYOND` samples above it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)

#: Samples a reported percentile must have beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the interpolation rank of ``pct``."""
    if count == 0:
        return 0
    return count - 1 - math.floor((count - 1) * pct / 100.0)


def tail_percentile(
    values: Sequence[float], min_beyond: int = MIN_BEYOND
) -> Tuple[Optional[float], float]:
    """``(pct, value)`` at the highest ladder percentile the sample supports.

    Returns ``(None, 0.0)`` for no samples, and the median labelled 50
    when even the median has fewer than ``min_beyond`` samples beyond it.
    """
    if not values:
        return None, 0.0
    for pct in TAIL_LADDER:
        if samples_beyond(len(values), pct) >= min_beyond:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
