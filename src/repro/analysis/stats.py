"""Small statistics helpers shared by the figure runners."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.clustering import percentile  # noqa: F401 (re-exported)


def ccdf_points(values: Sequence[int]) -> List[Tuple[float, float]]:
    """Complementary CDF: (x, fraction of values ≥ x) at each distinct x.

    Matches the paper's cluster-size CCDF axes (Figures 3 and 6): the
    point at x = 1 is always 1.0 and the last point covers the maximum.
    """
    if not values:
        raise ValueError("cannot compute CCDF of no values")
    ordered = sorted(values)
    total = len(ordered)
    points: List[Tuple[float, float]] = []
    index = 0
    for value in sorted(set(ordered)):
        # Count of values >= value: total minus those strictly below.
        while index < total and ordered[index] < value:
            index += 1
        points.append((float(value), (total - index) / total))
    return points


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """CDF: (x, fraction of values ≤ x) at each distinct x."""
    if not values:
        raise ValueError("cannot compute CDF of no values")
    ordered = sorted(values)
    total = len(ordered)
    points: List[Tuple[float, float]] = []
    count = 0
    for value in sorted(set(ordered)):
        while count < total and ordered[count] <= value:
            count += 1
        points.append((float(value), count / total))
    return points


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise ValueError("cannot compute mean of no values")
    return sum(values) / len(values)


def fraction_at_least(values: Sequence[int], threshold: int) -> float:
    """Fraction of values ≥ threshold."""
    if not values:
        raise ValueError("no values")
    return sum(1 for value in values if value >= threshold) / len(values)


def summarize_sizes(sizes: Sequence[int]) -> Dict[str, float]:
    """Summary used in experiment logs: mean, p90, max, singleton share."""
    return {
        "count": float(len(sizes)),
        "mean": mean([float(s) for s in sizes]),
        "p90": percentile([float(s) for s in sizes], 90.0),
        "max": float(max(sizes)),
        "singleton_fraction": sum(1 for s in sizes if s == 1) / len(sizes),
    }
