"""Headline metrics: the paper's quotable numbers from one evaluation run.

Collects every scalar the paper reports in prose — final mean cluster
size (1.40), singleton share (92%), the >5-AS tail (14 clusters / 7.9% of
ASes), footprint budgets (358/118/31), near-vs-far means (1.85/2.64),
random-vs-greedy at ten configurations (7.8/3.5) — next to this
reproduction's values, for EXPERIMENTS.md and the ``spooftrack headline``
command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.clustering import clusters_from_catchment_history
from ..core.scheduler import percentile_curve, random_schedule_curves
from ..strategy import GreedyStrategy, run_strategy
from .figures import EvaluationRun
from .stats import mean


@dataclass(frozen=True)
class HeadlineMetric:
    """One paper-vs-reproduction scalar."""

    name: str
    paper: str
    measured: str


def headline_metrics(
    run: EvaluationRun,
    num_random_sequences: int = 60,
    schedule_horizon: int = 10,
    seed: int = 0,
) -> List[HeadlineMetric]:
    """Compute the headline comparison for one evaluation run."""
    state = clusters_from_catchment_history(run.universe, run.catchment_history)
    sizes = state.sizes()
    large = [size for size in sizes if size > 5]

    metrics: List[HeadlineMetric] = [
        HeadlineMetric(
            "configurations deployed",
            "705 (64+294+347)",
            str(len(run.schedule)),
        ),
        HeadlineMetric(
            "sources analyzed", "1,885 ASes", f"{len(run.universe)} ASes"
        ),
        HeadlineMetric(
            "final mean cluster size", "1.40 ASes", f"{state.mean_size():.2f} ASes"
        ),
        HeadlineMetric(
            "singleton clusters", "92%", f"{state.singleton_fraction():.0%}"
        ),
        HeadlineMetric(
            "clusters >5 ASes / ASes therein",
            "14 / 7.9%",
            f"{len(large)} / {sum(large) / len(run.universe):.1%}",
        ),
    ]

    # Near vs far (Figure 7).
    size_of = {asn: len(c) for c in state.clusters() for asn in c}
    near, far = [], []
    for asn in run.universe:
        distance = run.distances.get(asn)
        if distance is None or asn not in size_of:
            continue
        (near if distance <= 2 else far).append(float(size_of[asn]))
    if near and far:
        metrics.append(
            HeadlineMetric(
                "mean cluster size, 1–2 vs 3+ hops",
                "1.85 vs 2.64",
                f"{mean(near):.2f} vs {mean(far):.2f}",
            )
        )

    # Random vs greedy at the horizon (Figure 8).
    universe = sorted(run.universe)
    horizon = min(schedule_horizon, len(run.catchment_history))
    curves = random_schedule_curves(
        universe,
        run.catchment_history,
        num_sequences=num_random_sequences,
        seed=seed,
        max_steps=horizon,
    )
    median = percentile_curve(curves, 50.0)
    greedy = run_strategy(
        GreedyStrategy(),
        universe,
        run.catchment_history,
        max_steps=horizon,
        check_converged=False,
    ).curve
    if median and greedy:
        step = min(horizon, len(median), len(greedy)) - 1
        metrics.append(
            HeadlineMetric(
                f"random vs greedy at {step + 1} configs",
                "7.8 vs 3.5",
                f"{median[step]:.1f} vs {greedy[step]:.1f}",
            )
        )
    return metrics


def render_headline(metrics: List[HeadlineMetric]) -> str:
    """Aligned text table of the comparison."""
    name_width = max(len(metric.name) for metric in metrics)
    paper_width = max(len(metric.paper) for metric in metrics)
    lines = [
        f"{'result':<{name_width}}  {'paper':<{paper_width}}  reproduction",
        f"{'-' * name_width}  {'-' * paper_width}  {'-' * 12}",
    ]
    for metric in metrics:
        lines.append(
            f"{metric.name:<{name_width}}  {metric.paper:<{paper_width}}  "
            f"{metric.measured}"
        )
    return "\n".join(lines)
