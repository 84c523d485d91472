"""One experiment runner per paper figure (Figures 3–10).

Every runner consumes a shared :class:`EvaluationRun` — the expensive
part, deploying the full announcement schedule once — and returns a
:class:`FigureResult` holding the same series the paper plots.  Absolute
numbers differ (synthetic Internet vs the real one); the *shape* targets
are listed in DESIGN.md §4 and checked by the benchmark suite.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..bgp.announcement import AnnouncementConfig
from ..core.clustering import ClusterState
from ..core.configgen import (
    PHASE_LOCATIONS,
    PHASE_POISONING,
    PHASE_PREPENDING,
    ScheduleParams,
)
from ..core.engine import SimulationEngine
from ..core.localization import traffic_fraction_by_cluster_size
from ..core.pipeline import SpoofTracker, Testbed, build_testbed
from ..core.prediction import ComplianceStats, policy_compliance
from ..core.scheduler import (
    GreedyScheduler,
    mean_cluster_size_curve,
    percentile_curve,
    random_schedule_curves,
)
from ..spoof.sources import PLACEMENT_DISTRIBUTIONS, make_placement
from ..types import ASN, Catchment, LinkId
from .stats import ccdf_points, cdf_points, fraction_at_least, mean


@dataclass(frozen=True)
class Series:
    """One plotted line: a name and (x, y) points."""

    name: str
    points: Tuple[Tuple[float, float], ...]

    @classmethod
    def from_values(cls, name: str, values: Sequence[float]) -> "Series":
        """Build a series with x = 1, 2, … (configuration counts)."""
        return cls(
            name=name,
            points=tuple((float(i + 1), float(v)) for i, v in enumerate(values)),
        )


@dataclass
class FigureResult:
    """Data behind one reproduced figure."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series]
    notes: List[str] = field(default_factory=list)

    def series_named(self, name: str) -> Series:
        """Look up a series by name.

        Raises:
            KeyError: when absent.
        """
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(f"no series named {name!r} in {self.figure_id}")


class EvaluationRun:
    """Deploys the full schedule once and caches everything figures need.

    Attributes:
        testbed: the wired testbed.
        schedule: the deployed configurations, in order.
        universe: sources covered by the first (anycast-all) configuration.
        catchment_history: per-configuration ground-truth catchments,
            restricted to the universe.
        compliance: per-configuration policy-compliance statistics
            (Figure 9 input).
        distances: AS-hop distance of every AS from the origin.
    """

    def __init__(
        self,
        testbed: Optional[Testbed] = None,
        seed: int = 0,
        schedule_params: Optional[ScheduleParams] = None,
        max_configs: Optional[int] = None,
        compute_compliance: bool = True,
        measured: bool = False,
        engine: Optional[SimulationEngine] = None,
    ) -> None:
        """Deploy the schedule.

        With ``measured=True`` catchments come from the full §IV pipeline
        (BGP feeds + repaired traceroutes, conflict resolution, smax
        imputation) instead of the simulator's ground truth — matching
        how the paper actually produced its figures, at the cost of
        reduced coverage and much longer runtime.

        Simulations run through ``engine`` (built on demand), so
        deploying the same schedule twice — or sharing an engine between
        a run and a tracker — costs zero extra fixpoints.
        """
        self.testbed = testbed or build_testbed(seed=seed)
        self.engine = engine or SimulationEngine(self.testbed.simulator)
        tracker = SpoofTracker(self.testbed, schedule_params, engine=self.engine)
        limit = len(tracker.schedule) if max_configs is None else max_configs
        self.schedule: List[AnnouncementConfig] = tracker.schedule[:limit]
        graph = self.testbed.graph
        origin = self.testbed.origin
        self.distances: Dict[ASN, int] = graph.hop_distances([origin.asn])
        self.measured = measured

        self.catchment_history: List[Dict[LinkId, Catchment]] = []
        self.compliance: List[ComplianceStats] = []
        universe: Optional[FrozenSet[ASN]] = None
        outcomes = self.engine.simulate_many(self.schedule)
        if measured:
            from ..measurement.catchment import CatchmentHistory

            history: Optional[CatchmentHistory] = None
            for config, outcome in zip(self.schedule, outcomes):
                measurement = self.testbed.campaign.measure(outcome)
                if history is None:
                    universe = frozenset(measurement.assignment)
                    history = CatchmentHistory(universe)
                history.add(measurement.assignment)
                if compute_compliance:
                    self.compliance.append(
                        policy_compliance(
                            outcome, graph, self.testbed.policy, origin
                        )
                    )
            assert history is not None and universe is not None
            for assignment, config in zip(
                history.imputed_assignments(), self.schedule
            ):
                catchments: Dict[LinkId, set] = {
                    link: set() for link in sorted(config.announced)
                }
                for source, link in assignment.items():
                    catchments.setdefault(link, set()).add(source)
                self.catchment_history.append(
                    {
                        link: frozenset(members)
                        for link, members in catchments.items()
                    }
                )
        else:
            for config, outcome in zip(self.schedule, outcomes):
                if universe is None:
                    universe = outcome.covered_ases
                self.catchment_history.append(
                    {
                        link: frozenset(members & universe)
                        for link, members in outcome.catchments.items()
                    }
                )
                if compute_compliance:
                    self.compliance.append(
                        policy_compliance(
                            outcome, graph, self.testbed.policy, origin
                        )
                    )
        assert universe is not None
        self.universe: FrozenSet[ASN] = universe

    # ------------------------------------------------------------------

    def phase_boundaries(self) -> Dict[str, int]:
        """Number of configurations deployed by the end of each phase."""
        boundaries: Dict[str, int] = {}
        for index, config in enumerate(self.schedule):
            boundaries[config.phase] = index + 1
        return boundaries

    def final_clusters(
        self, history: Optional[Sequence[Mapping[LinkId, Catchment]]] = None
    ) -> List[FrozenSet[ASN]]:
        """Clusters after refining with the (given or full) history."""
        state = ClusterState(self.universe)
        for catchments in history if history is not None else self.catchment_history:
            state.refine_with_catchments(catchments)
        return state.clusters()

    def location_subset_history(
        self, remaining_links: Sequence[LinkId]
    ) -> List[Dict[LinkId, Catchment]]:
        """Locations+prepending catchments restricted to a link subset.

        Emulates a network owning only ``remaining_links`` by keeping the
        configurations that announce exclusively from those links — the
        paper's Figures 5 and 6 methodology.
        """
        subset = frozenset(remaining_links)
        return [
            catchments
            for config, catchments in zip(self.schedule, self.catchment_history)
            if config.phase in (PHASE_LOCATIONS, PHASE_PREPENDING)
            and config.announced <= subset
        ]


# ----------------------------------------------------------------------
# Figure 3 — CCDF of cluster sizes after each phase
# ----------------------------------------------------------------------

#: Legend strings, matching the paper's Figure 3.
PHASE_SERIES_NAMES = {
    PHASE_LOCATIONS: "Locations",
    PHASE_PREPENDING: "Locations and prepending",
    PHASE_POISONING: "Locations, prepending, and poisoning",
}


def figure3(run: EvaluationRun) -> FigureResult:
    """CCDF of cluster sizes at the end of each technique phase."""
    state = ClusterState(run.universe)
    series: List[Series] = []
    notes: List[str] = []
    previous_phase: Optional[str] = None
    for index, (config, catchments) in enumerate(
        zip(run.schedule, run.catchment_history)
    ):
        if previous_phase is not None and config.phase != previous_phase:
            series.append(
                Series(
                    PHASE_SERIES_NAMES.get(previous_phase, previous_phase),
                    tuple(ccdf_points(state.sizes())),
                )
            )
        state.refine_with_catchments(catchments)
        previous_phase = config.phase
    if previous_phase is not None:
        series.append(
            Series(
                PHASE_SERIES_NAMES.get(previous_phase, previous_phase),
                tuple(ccdf_points(state.sizes())),
            )
        )
    sizes = state.sizes()
    large = [size for size in sizes if size > 5]
    notes.append(f"final mean cluster size: {state.mean_size():.2f} ASes (paper: 1.40)")
    notes.append(
        f"singleton clusters: {state.singleton_fraction():.0%} (paper: 92%)"
    )
    notes.append(
        f"clusters larger than 5 ASes: {len(large)} holding "
        f"{sum(large) / len(run.universe):.1%} of ASes (paper: 14 / 7.9%)"
    )
    return FigureResult(
        figure_id="figure3",
        title="Distribution of cluster sizes after each phase",
        xlabel="Cluster Size [ASes]",
        ylabel="CCDF of Clusters",
        series=series,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Figure 4 — cluster sizes vs number of configurations
# ----------------------------------------------------------------------


def figure4(run: EvaluationRun) -> FigureResult:
    """Mean and 90th-percentile cluster size after each configuration."""
    state = ClusterState(run.universe)
    means: List[float] = []
    p90s: List[float] = []
    for catchments in run.catchment_history:
        state.refine_with_catchments(catchments)
        means.append(state.mean_size())
        p90s.append(state.size_percentile(90.0))
    boundaries = run.phase_boundaries()
    notes = [
        f"end of {phase} phase at configuration {boundary}"
        for phase, boundary in sorted(boundaries.items(), key=lambda kv: kv[1])
    ]
    return FigureResult(
        figure_id="figure4",
        title="Cluster sizes as function of number of configurations",
        xlabel="Number of Configurations",
        ylabel="Cluster Size [ASes]",
        series=[
            Series.from_values("Mean Cluster Size", means),
            Series.from_values("90th Percentile", p90s),
        ],
        notes=notes,
    )


# ----------------------------------------------------------------------
# Figures 5 and 6 — impact of the peering footprint
# ----------------------------------------------------------------------


def _footprint_scenarios(
    run: EvaluationRun, drop_counts: Sequence[int], max_subsets: Optional[int]
) -> Dict[str, List[List[Dict[LinkId, Catchment]]]]:
    """Per scenario name, the restricted histories of every link subset."""
    links = run.testbed.origin.link_ids
    scenarios: Dict[str, List[List[Dict[LinkId, Catchment]]]] = {}
    for dropped in drop_counts:
        remaining_size = len(links) - dropped
        if remaining_size < 2:
            continue
        name = _scenario_name(remaining_size, len(links))
        histories = []
        for subset in itertools.combinations(sorted(links), remaining_size):
            histories.append(run.location_subset_history(subset))
            if max_subsets is not None and len(histories) >= max_subsets:
                break
        scenarios[name] = histories
    return scenarios


def _scenario_name(remaining: int, total: int) -> str:
    if remaining == total:
        return "All locations"
    words = {5: "Five", 6: "Six", 4: "Four", 3: "Three", 2: "Two"}
    return f"{words.get(remaining, str(remaining))} locations"


def figure5(
    run: EvaluationRun,
    drop_counts: Sequence[int] = (0, 1, 2),
    max_subsets: Optional[int] = None,
) -> FigureResult:
    """Mean cluster size vs configurations when discarding peering links.

    For each scenario (all links, one dropped, two dropped) the mean curve
    is averaged across link subsets; min/max envelope curves reproduce the
    paper's shaded bands.
    """
    scenarios = _footprint_scenarios(run, drop_counts, max_subsets)
    series: List[Series] = []
    notes: List[str] = []
    for name, histories in scenarios.items():
        curves = [
            mean_cluster_size_curve(sorted(run.universe), history)
            for history in histories
            if history
        ]
        if not curves:
            continue
        length = min(len(curve) for curve in curves)
        trimmed = [curve[:length] for curve in curves]
        avg = [mean([curve[i] for curve in trimmed]) for i in range(length)]
        series.append(Series.from_values(name, avg))
        if len(trimmed) > 1:
            series.append(
                Series.from_values(
                    f"{name} (min)",
                    [min(curve[i] for curve in trimmed) for i in range(length)],
                )
            )
            series.append(
                Series.from_values(
                    f"{name} (max)",
                    [max(curve[i] for curve in trimmed) for i in range(length)],
                )
            )
        notes.append(
            f"{name}: {length} configurations, final mean {avg[-1]:.2f} ASes"
        )
    return FigureResult(
        figure_id="figure5",
        title="Mean cluster size when removing peering locations",
        xlabel="Number of Configurations",
        ylabel="Mean Cluster Size [ASes]",
        series=series,
        notes=notes,
    )


def figure6(
    run: EvaluationRun,
    drop_counts: Sequence[int] = (0, 1, 2),
    max_subsets: Optional[int] = None,
) -> FigureResult:
    """CCDF of final cluster sizes when discarding peering links.

    Cluster sizes are pooled across link subsets of each scenario (the
    paper plots a representative line plus a min/max band).
    """
    scenarios = _footprint_scenarios(run, drop_counts, max_subsets)
    series: List[Series] = []
    notes: List[str] = []
    for name, histories in scenarios.items():
        pooled: List[int] = []
        for history in histories:
            if not history:
                continue
            clusters = run.final_clusters(history)
            pooled.extend(len(cluster) for cluster in clusters)
        if not pooled:
            continue
        series.append(Series(name, tuple(ccdf_points(pooled))))
        notes.append(
            f"{name}: {fraction_at_least(pooled, 26):.2%} of clusters "
            f"with more than 25 ASes (paper: 0.1% / 1.27% / 4.29%)"
        )
    return FigureResult(
        figure_id="figure6",
        title="Distribution of cluster size after removing locations",
        xlabel="Cluster Size [ASes]",
        ylabel="CCDF of Clusters",
        series=series,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Figure 7 — cluster size vs AS-hop distance from the origin
# ----------------------------------------------------------------------


def figure7(run: EvaluationRun, max_size: int = 25) -> FigureResult:
    """Cumulative fraction of ASes vs cluster size, by distance group."""
    clusters = run.final_clusters()
    cluster_size_of: Dict[ASN, int] = {}
    for cluster in clusters:
        for asn in cluster:
            cluster_size_of[asn] = len(cluster)
    groups: Dict[str, List[int]] = {
        "ASes 1 hop from origin": [],
        "ASes 2 hops from origin": [],
        "ASes 3 hops from origin": [],
        "ASes 4+ hops from origin": [],
    }
    group_means: Dict[str, float] = {}
    for asn in run.universe:
        distance = run.distances.get(asn)
        size = cluster_size_of.get(asn)
        if distance is None or size is None:
            continue
        if distance <= 1:
            groups["ASes 1 hop from origin"].append(size)
        elif distance == 2:
            groups["ASes 2 hops from origin"].append(size)
        elif distance == 3:
            groups["ASes 3 hops from origin"].append(size)
        else:
            groups["ASes 4+ hops from origin"].append(size)
    series: List[Series] = []
    notes: List[str] = []
    for name, sizes in groups.items():
        if not sizes:
            continue
        points = []
        total = len(sizes)
        for size in range(1, max_size + 1):
            points.append(
                (float(size), sum(1 for s in sizes if s <= size) / total)
            )
        series.append(Series(name, tuple(points)))
        group_means[name] = mean([float(s) for s in sizes])
        notes.append(f"{name}: {total} ASes, mean cluster size {group_means[name]:.2f}")
    near = [groups["ASes 1 hop from origin"], groups["ASes 2 hops from origin"]]
    far = [groups["ASes 3 hops from origin"], groups["ASes 4+ hops from origin"]]
    near_sizes = [s for group in near for s in group]
    far_sizes = [s for group in far for s in group]
    if near_sizes and far_sizes:
        notes.append(
            f"1–2 hops mean {mean([float(s) for s in near_sizes]):.2f} vs "
            f"3+ hops mean {mean([float(s) for s in far_sizes]):.2f} "
            f"(paper: 1.85 vs 2.64)"
        )
    return FigureResult(
        figure_id="figure7",
        title="Cluster size as function of AS-hop distance from origin AS",
        xlabel="Cluster Size",
        ylabel="Cumulative Fraction of ASes",
        series=series,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Figure 8 — announcement scheduling
# ----------------------------------------------------------------------


def figure8(
    run: EvaluationRun,
    num_random_sequences: int = 100,
    max_steps: int = 40,
    seed: int = 0,
) -> FigureResult:
    """Random vs greedy (iterative-algorithm) deployment schedules."""
    universe = sorted(run.universe)
    random_curves = random_schedule_curves(
        universe,
        run.catchment_history,
        num_sequences=num_random_sequences,
        seed=seed,
        max_steps=max_steps,
    )
    p25 = percentile_curve(random_curves, 25.0)
    p50 = percentile_curve(random_curves, 50.0)
    p75 = percentile_curve(random_curves, 75.0)
    scheduler = GreedyScheduler(universe, run.catchment_history)
    _, greedy_curve = scheduler.run(max_steps=max_steps)
    notes = []
    checkpoint = min(10, len(p50), len(greedy_curve))
    if checkpoint:
        notes.append(
            f"after {checkpoint} configurations: random median "
            f"{p50[checkpoint - 1]:.1f} vs greedy {greedy_curve[checkpoint - 1]:.1f} "
            f"ASes (paper: 7.8 vs 3.5 at 10)"
        )
    return FigureResult(
        figure_id="figure8",
        title="Mean cluster size as function of announcement schedule",
        xlabel="Number of Configurations",
        ylabel="Mean Cluster Size [ASes]",
        series=[
            Series.from_values("25th Percentile", p25),
            Series.from_values("Random (median of means)", p50),
            Series.from_values("75th Percentile", p75),
            Series.from_values("Iterative Algorithm", greedy_curve),
        ],
        notes=notes,
    )


# ----------------------------------------------------------------------
# Figure 9 — routing-policy compliance
# ----------------------------------------------------------------------


def figure9(run: EvaluationRun) -> FigureResult:
    """CDF over configurations of the fraction of policy-compliant ASes."""
    if not run.compliance:
        raise ValueError("evaluation run was built with compute_compliance=False")
    best_rel = [stats.best_relationship for stats in run.compliance]
    both = [stats.best_relationship_and_shortest for stats in run.compliance]
    notes = [
        f"median fraction following best relationship: {sorted(best_rel)[len(best_rel) // 2]:.2%}",
        f"median fraction following Gao-Rexford (both): {sorted(both)[len(both) // 2]:.2%}",
    ]
    return FigureResult(
        figure_id="figure9",
        title="Percentage of ASes following well-known routing policies",
        xlabel="Percentage of ASes",
        ylabel="Cumulative Fraction of Configurations",
        series=[
            Series("Best Relationship & Shortest", tuple(cdf_points(both))),
            Series("Best Relationship", tuple(cdf_points(best_rel))),
        ],
        notes=notes,
    )


# ----------------------------------------------------------------------
# Figure 10 — spoofed traffic vs cluster size
# ----------------------------------------------------------------------

#: Legend strings, matching the paper's Figure 10.
DISTRIBUTION_SERIES_NAMES = {
    "uniform": "Uniform Distribution",
    "pareto": "Pareto Distribution",
    "single": "Single Source",
}


def figure10(
    run: EvaluationRun,
    num_placements: int = 200,
    num_sources: int = 50,
    max_size: int = 16,
    seed: int = 0,
) -> FigureResult:
    """Cumulative spoofed-traffic fraction vs cluster size per distribution.

    For each distribution the curve is averaged over ``num_placements``
    random placements (the paper uses 1,000).
    """
    clusters = run.final_clusters()
    universe = sorted(run.universe)
    series: List[Series] = []
    notes: List[str] = []
    for distribution in PLACEMENT_DISTRIBUTIONS:
        rng = random.Random(f"{seed}|{distribution}")
        totals = [0.0] * max_size
        for _ in range(num_placements):
            placement = make_placement(distribution, universe, num_sources, rng)
            fractions = traffic_fraction_by_cluster_size(
                placement, clusters, max_size=max_size
            )
            for index in range(max_size):
                totals[index] += fractions.get(index + 1, 0.0)
        averaged = [value / num_placements for value in totals]
        series.append(
            Series(
                DISTRIBUTION_SERIES_NAMES[distribution],
                tuple((float(i + 1), value) for i, value in enumerate(averaged)),
            )
        )
        notes.append(
            f"{DISTRIBUTION_SERIES_NAMES[distribution]}: "
            f"{averaged[0]:.0%} of traffic in singleton clusters, "
            f"{averaged[min(4, max_size - 1)]:.0%} in clusters of ≤5 ASes"
        )
    return FigureResult(
        figure_id="figure10",
        title="Distribution of cluster size as function of traffic volume",
        xlabel="Cluster Size [ASes]",
        ylabel="Cumulative Fraction of Traffic Volume",
        series=series,
        notes=notes,
    )


#: Registry used by the CLI and benchmark harness.
FIGURE_RUNNERS = {
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
}
