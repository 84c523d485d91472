"""The traceback-strategy interface and its batch driver.

The paper's §V-C greedy deployment used to be hardcoded into
:class:`~repro.core.scheduler.GreedyScheduler` and the live
:class:`~repro.live.controller.AdaptiveController`.  A
:class:`TracebackStrategy` factors the *decision* out of both: given the
current partition (and, when available, per-AS volume estimates), it
proposes the next announcement configuration to deploy, observes the
deployment, and reports convergence.  The batch scheduler, the batch
tracker, the live controller, and the ``spooftrack compare`` harness all
drive strategies through this one interface, so the paper's greedy
algorithm, a BGPeek-a-Boo-style poisoning walk, binary-search catchment
splitting, and random baselines are interchangeable everywhere.

Scoring convention shared by the greedy family (and the live
controller): a candidate configuration is valued by the lexicographic
tuple ``(weighted cost reduction, unweighted split gain)``.  Refinement
can only preserve or reduce the volume-weighted cluster cost, so any
computed *increase* — and any decrease within float-summation noise of
zero — is clamped to exactly ``0.0`` before comparison; without the
clamp, a 1e-12 artifact of summation order could outrank a real split
(the historical ``* 1e-9`` fallback-scaling bug).  Ties break toward the
lowest schedule index, which keeps every strategy deterministic under
any ``PYTHONHASHSEED``.

:func:`weighted_split_score` and
:func:`~repro.core.scheduler.refinement_gain` define the scores; the
built-in strategies compute them for every remaining candidate at once
through :mod:`repro.strategy.kernel`, with the same orders.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.clustering import ClusterState
from ..errors import StrategyError
from ..types import ASN, Catchment, LinkId
from .kernel import LabelMatrix

#: Relative threshold below which a weighted cost reduction is treated
#: as float-summation noise and clamped to exactly zero.
NOISE_FLOOR = 1e-9

#: Stop reason shared with the pre-plugin controller (string-identical,
#: so checkpoints and reports read the same across the refactor).
NO_SPLIT_REASON = "no remaining configuration splits any cluster"


def weighted_cost(
    state: ClusterState, volume_by_as: Mapping[ASN, float]
) -> float:
    """Σ over clusters of estimated cluster volume × cluster size.

    The §VIII volume-aware objective: splitting a busy cluster reduces
    the cost by (volume moved out) × (size shrinkage), so high-volume
    clusters are worth proportionally more to split.  Summation follows
    :meth:`ClusterState.clusters` order (largest cluster first), which
    makes the float result deterministic for a given partition.
    """
    cost = 0.0
    for cluster in state.clusters():
        volume = sum(volume_by_as.get(asn, 0.0) for asn in cluster)
        cost += volume * len(cluster)
    return cost


def weighted_split_score(
    state: ClusterState,
    catchments: Mapping[LinkId, Catchment],
    volume_by_as: Mapping[ASN, float],
) -> Tuple[float, int]:
    """Lexicographic ``(weighted reduction, split gain)`` of one config.

    Evaluated on a copy; ``state`` is untouched.  With no volume
    evidence the first component is exactly ``0.0`` and ranking falls
    back to the unweighted §V-C split gain.  Reductions within
    :data:`NOISE_FLOOR` (relative) of zero clamp to ``0.0`` — refinement
    cannot genuinely increase the cost, so anything that small is
    summation noise, not signal.
    """
    working = state.copy()
    if not volume_by_as:
        return (0.0, working.refine_with_catchments(catchments))
    before = weighted_cost(working, volume_by_as)
    splits = working.refine_with_catchments(catchments)
    if not splits:
        return (0.0, 0)
    reduction = before - weighted_cost(working, volume_by_as)
    if reduction <= NOISE_FLOOR * max(1.0, abs(before)):
        reduction = 0.0
    return (reduction, splits)


class TracebackStrategy(ABC):
    """One traceback algorithm: propose / observe / converged.

    A strategy is *bound* once to the measured evidence — one catchment
    map per candidate configuration (and optionally the configurations
    themselves, for phase-aware strategies) — then driven step by step:

    1. :meth:`converged` — stop reason, or None to continue;
    2. :meth:`propose` — index of the next configuration to deploy
       (None when nothing remaining is worth deploying);
    3. :meth:`observe` — the proposal was deployed; consume it from the
       remaining pool and update internal beliefs.

    ``state`` arguments carry the partition *before* the observed
    configuration refines it; strategies derive post-deployment
    structure from their own catchment maps.  Implementations must stay
    deterministic: iterate sorted structures only, and draw randomness
    exclusively from ``random.Random(self.seed)``.

    Args:
        seed: seed for any internal randomness (ignored by the
            deterministic built-ins).
    """

    #: Registry name (set by concrete strategies).
    name: ClassVar[str] = ""
    #: True when the strategy always deploys the bound schedule in its
    #: given order — drivers may then skip the per-step planning loop.
    deploys_in_schedule_order: ClassVar[bool] = False
    #: Stop reason reported when :meth:`propose` returns None.
    no_proposal_reason: ClassVar[str] = "nothing left worth deploying"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.catchment_maps: List[Dict[LinkId, Catchment]] = []
        self.schedule: List = []
        self.remaining: List[int] = []
        self.universe: Optional[List[ASN]] = None
        self._bound = False
        self._labels: Optional[LabelMatrix] = None

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    @property
    def bound(self) -> bool:
        """True once :meth:`bind` has attached evidence."""
        return self._bound

    def bind(
        self,
        catchment_maps: Sequence[Mapping[LinkId, Catchment]],
        schedule: Optional[Sequence] = None,
        universe: Optional[Sequence[ASN]] = None,
    ) -> "TracebackStrategy":
        """Attach the measured evidence; returns self for chaining.

        Args:
            catchment_maps: one catchment map per candidate
                configuration (typically pre-restricted to the analysis
                universe).
            schedule: the :class:`AnnouncementConfig` objects aligned
                with ``catchment_maps`` (phase-aware strategies read
                ``config.phase``; optional otherwise).
            universe: the analysis universe (optional; strategies that
                need it lazily read it off the first ``state`` instead).
        """
        if self._bound:
            raise StrategyError(f"strategy {self.name!r} is already bound")
        if not catchment_maps:
            raise StrategyError("strategy needs at least one catchment map")
        if schedule is not None and len(schedule) != len(catchment_maps):
            raise StrategyError(
                f"{len(schedule)} configurations vs "
                f"{len(catchment_maps)} catchment maps"
            )
        self.catchment_maps = [dict(maps) for maps in catchment_maps]
        self.schedule = list(schedule) if schedule is not None else []
        self.universe = sorted(universe) if universe is not None else None
        self.remaining = list(range(len(self.catchment_maps)))
        self._bound = True
        self._labels = None
        self._after_bind()
        return self

    def _after_bind(self) -> None:
        """Hook for subclasses (e.g. seeding a shuffled order)."""

    def label_matrix(self, state: ClusterState) -> LabelMatrix:
        """The catchment maps as a :class:`LabelMatrix` for ``state``.

        The matrix has one column per AS of ``state``'s universe.  It is
        built on first use and kept until the evidence changes
        (:meth:`bind`, :meth:`update_catchments`) or a state with another
        universe is scored.
        """
        if self._labels is None or not self._labels.covers(state):
            self._labels = LabelMatrix(self.catchment_maps, state.universe)
        return self._labels

    def _at(self, position: Optional[int]) -> Optional[int]:
        """The remaining index at ``position`` (None stays None)."""
        return None if position is None else self.remaining[position]

    # ------------------------------------------------------------------
    # The decision interface
    # ------------------------------------------------------------------

    @abstractmethod
    def propose(
        self,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> Optional[int]:
        """Index of the next configuration to deploy, or None.

        ``volume_by_as`` carries rolling per-AS volume estimates when
        the driver has them (live attribution, a prior localization
        pass); None or empty means no volume evidence yet.
        """

    def observe(
        self,
        index: int,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> None:
        """Record that ``index`` was deployed (pre-refinement ``state``).

        The base implementation consumes the index from the remaining
        pool; subclasses extend it to update beliefs (e.g. narrowing a
        suspect set from the catchment shift the deployment causes).
        """
        try:
            self.remaining.remove(index)
        except ValueError:
            raise StrategyError(
                f"configuration {index} is not in the remaining pool"
            ) from None

    def converged(
        self,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> Optional[str]:
        """Stop reason, or None to keep deploying.

        The base check mirrors the live controller's historical
        short-circuit: stop when the candidate pool is exhausted or when
        no remaining configuration can split any cluster (every split
        gain in :meth:`label_matrix` is zero).
        """
        if not self.remaining:
            return "schedule exhausted"
        gains = self.label_matrix(state).split_gains(self.remaining, state)
        if gains.max() == 0:
            return NO_SPLIT_REASON
        return None

    # ------------------------------------------------------------------
    # Remeasurement / checkpointing hooks
    # ------------------------------------------------------------------

    def update_catchments(
        self, fresh_maps: Sequence[Mapping[LinkId, Catchment]]
    ) -> None:
        """Swap in remeasured catchment maps (same alignment)."""
        if self._bound and len(fresh_maps) != len(self.catchment_maps):
            raise StrategyError(
                f"{len(fresh_maps)} remeasured maps for "
                f"{len(self.catchment_maps)} configurations"
            )
        self.catchment_maps = [dict(maps) for maps in fresh_maps]
        self._labels = None

    def restore_remaining(self, remaining: Sequence[int]) -> None:
        """Restore the remaining pool from a checkpoint."""
        self.remaining = [int(index) for index in remaining]

    def extra_state(self) -> Dict:
        """JSON-safe strategy-private state beyond the remaining pool."""
        return {}

    def restore_extra(self, payload: Mapping) -> None:
        """Restore state dumped by :meth:`extra_state`."""


@dataclass(frozen=True)
class StrategyRunResult:
    """Everything one batch strategy run produced.

    Attributes:
        strategy: registry name of the strategy that ran.
        order: deployment order, as indices into the bound evidence.
        curve: per-step metric (mean cluster size unless the driver was
            given a custom ``curve_metric``).
        stop_reason: why the run ended.
        final_sizes: final cluster sizes, descending.
    """

    strategy: str
    order: List[int]
    curve: List[float]
    stop_reason: str
    final_sizes: List[int]

    @property
    def final_mean_size(self) -> float:
        """Final mean cluster size."""
        return sum(self.final_sizes) / len(self.final_sizes)

    @property
    def final_max_size(self) -> int:
        """Size of the final largest cluster."""
        return max(self.final_sizes)


def run_strategy(
    strategy: TracebackStrategy,
    universe: Sequence[ASN],
    catchment_maps: Optional[Sequence[Mapping[LinkId, Catchment]]] = None,
    schedule: Optional[Sequence] = None,
    max_steps: Optional[int] = None,
    volume_by_as: Optional[Mapping[ASN, float]] = None,
    curve_metric: Optional[Callable[[ClusterState], float]] = None,
    check_converged: bool = True,
) -> StrategyRunResult:
    """Drive one strategy over pre-measured evidence to completion.

    The batch analogue of the live controller's loop: converged? →
    propose → observe → refine → record, until the strategy stops, the
    step budget runs out, or the pool drains.

    Args:
        strategy: the strategy to drive; bound here when not already.
        universe: sources to partition.
        catchment_maps: evidence to bind (ignored when ``strategy`` is
            already bound).
        schedule: configurations aligned with ``catchment_maps``.
        max_steps: deploy at most this many configurations.
        volume_by_as: static per-AS volume estimates to feed the
            strategy (None = no volume evidence).
        curve_metric: per-step curve value (default: mean cluster size).
        check_converged: consult :meth:`TracebackStrategy.converged`
            before each proposal.  The greedy family's proposals already
            subsume its base convergence check, so tight inner loops
            (:meth:`GreedyScheduler.run`) skip the redundant scan.
    """
    if not strategy.bound:
        if catchment_maps is None:
            raise StrategyError("unbound strategy needs catchment maps")
        strategy.bind(catchment_maps, schedule=schedule, universe=universe)
    maps = strategy.catchment_maps
    steps = len(maps) if max_steps is None else min(max_steps, len(maps))
    state = ClusterState(universe)
    order: List[int] = []
    curve: List[float] = []
    stop_reason = ""
    while len(order) < steps:
        if check_converged:
            reason = strategy.converged(state, volume_by_as)
            if reason is not None:
                stop_reason = reason
                break
        index = strategy.propose(state, volume_by_as)
        if index is None:
            stop_reason = strategy.no_proposal_reason
            break
        strategy.observe(index, state, volume_by_as)
        state.refine_with_catchments(maps[index])
        order.append(index)
        curve.append(
            curve_metric(state) if curve_metric is not None
            else state.mean_size()
        )
    else:
        stop_reason = (
            "schedule exhausted" if not strategy.remaining
            else "step budget exhausted"
        )
    return StrategyRunResult(
        strategy=strategy.name,
        order=order,
        curve=curve,
        stop_reason=stop_reason,
        final_sizes=[len(cluster) for cluster in state.clusters()],
    )
