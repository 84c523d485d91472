"""Built-in traceback strategies.

* ``greedy`` — the paper's §V-C iterative algorithm, volume-weighted
  (§VIII) whenever the driver passes volume estimates (the default;
  bit-identical to the pre-plugin scheduler/controller behaviour).
* ``bisect`` — binary-search catchment splitting: always attack the
  largest cluster with the configuration that bisects it most evenly.
* ``bgpeek`` — a BGPeek-a-Boo-style poisoning walk: maintain a suspect
  set, prefer poisoning-phase configurations that bisect the suspects'
  cluster, and commit to the highest-volume piece after each shift.
* ``random`` — seeded random deployment order (Figure 8's shaded
  baseline as a first-class strategy).
* ``schedule`` — deploy in given schedule order (the batch tracker's
  historical behaviour).
"""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Set, Tuple

import numpy as np

from ..core.clustering import ClusterState
from ..core.configgen import PHASE_POISONING
from ..types import ASN
from .base import (
    NO_SPLIT_REASON,
    NOISE_FLOOR,
    TracebackStrategy,
    weighted_split_score,
)
from .kernel import (
    best_bisection,
    best_split,
    choose_greedy,
    choose_rescored,
)


class GreedyStrategy(TracebackStrategy):
    """The paper's iterative algorithm (§V-C) and its volume-aware form (§VIII).

    Each step deploys the remaining configuration maximizing the
    lexicographic ``(weighted cost reduction, split gain)`` score — with
    no volume evidence the first component is identically zero and this
    reduces exactly to the §V-C unweighted greedy (the pre-plugin
    scheduler's order).  With volume
    estimates it is the live controller's adaptive reordering, now with
    the split gain as an explicit tie-break instead of a ``* 1e-9``
    scaled fallback score.  An all-zero estimate also falls back to the
    split gain, so the schedule keeps refining instead of dead-stopping.
    The estimates are whatever the driver passes to :meth:`propose`
    (``run_strategy(..., volume_by_as=...)``, or the live controller's
    rolling attribution).
    """

    name = "greedy"
    no_proposal_reason = NO_SPLIT_REASON

    def propose(
        self,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> Optional[int]:
        if not self.remaining:
            return None
        volumes = volume_by_as or {}
        matrix = self.label_matrix(state)
        if not volumes:
            gains = matrix.split_gains(self.remaining, state)
            return self._at(best_split(gains))

        def rescore(position: int) -> float:
            index = self.remaining[position]
            return weighted_split_score(
                state, self.catchment_maps[index], volumes
            )[0]

        weights = np.fromiter(volumes.values(), dtype=np.float64)
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            gains = matrix.split_gains(self.remaining, state)
            return self._at(choose_rescored(gains, rescore))
        gains, reductions, before = matrix.reductions(
            self.remaining, state, volumes
        )
        return self._at(
            choose_greedy(gains, reductions, before, rescore, NOISE_FLOOR)
        )


class ScheduleOrderStrategy(TracebackStrategy):
    """Deploy in the given schedule order (the batch tracker default).

    ``deploys_in_schedule_order`` lets the batch tracker skip the
    planning loop entirely — the plan *is* the schedule.  Driven through
    :func:`~repro.strategy.base.run_strategy` (e.g. by the compare
    harness) it still short-circuits once nothing can split, like every
    other strategy.
    """

    name = "schedule"
    deploys_in_schedule_order = True

    def propose(
        self,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> Optional[int]:
        return self.remaining[0] if self.remaining else None


class RandomStrategy(TracebackStrategy):
    """Seeded random deployment order (Figure 8's shaded baseline).

    The shuffle is drawn once at bind time from ``random.Random(seed)``,
    so the order is a pure function of the seed and the candidate count
    — two processes with different ``PYTHONHASHSEED`` agree exactly.
    """

    name = "random"

    def _after_bind(self) -> None:
        self._order: List[int] = list(range(len(self.catchment_maps)))
        random.Random(self.seed).shuffle(self._order)

    def propose(
        self,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> Optional[int]:
        remaining = set(self.remaining)
        for index in self._order:
            if index in remaining:
                return index
        return None


class BisectStrategy(TracebackStrategy):
    """Binary-search catchment splitting.

    Each step targets the largest current cluster and deploys the
    remaining configuration whose catchments carve it most evenly —
    minimizing the largest surviving piece of the target, the discrete
    analogue of halving a search interval.  When no configuration
    splits the largest cluster the next-largest is targeted, and so on;
    ties break toward the lowest schedule index.
    """

    name = "bisect"
    no_proposal_reason = NO_SPLIT_REASON

    def propose(
        self,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> Optional[int]:
        if not self.remaining:
            return None
        matrix = self.label_matrix(state)
        rows = np.asarray(self.remaining)
        for target in state.clusters():
            if len(target) < 2:
                break  # clusters() is size-sorted: only singletons left
            best = best_bisection(matrix, rows, target)
            if best is not None:
                return best
        return None


class PoisonWalkStrategy(TracebackStrategy):
    """BGPeek-a-Boo-style poisoning walk.

    BGPeek-a-Boo traces amplification-DDoS sources by poisoning upstream
    ASes and bisecting the candidate set from the traffic shifts each
    poisoned announcement causes.  Mapped onto this repo's evidence
    model:

    * a **suspect set** starts as the whole universe and only narrows;
    * each step targets the cluster holding the most suspects and
      deploys the configuration that bisects those suspects most evenly,
      preferring *poisoning-phase* configurations (the walk's probing
      primitive) over locations/prepending/communities;
    * observing the deployment commits the walk to one piece of the
      split — the piece carrying the most estimated volume (the "traffic
      still arrives" signal), falling back to the smallest piece when no
      volume evidence exists;
    * the walk converges once a single suspect AS remains.

    The walk trades total partition quality for speed at pinning one
    source — in ``spooftrack compare`` it typically converges in the
    fewest configurations while leaving the largest residual clusters.
    """

    name = "bgpeek"
    no_proposal_reason = NO_SPLIT_REASON

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._suspect_set: Optional[Set[ASN]] = None

    # -- suspect bookkeeping -------------------------------------------

    def _suspects(self, state: ClusterState) -> Set[ASN]:
        if self._suspect_set is None:
            self._suspect_set = set(state.universe)
        return self._suspect_set

    def _target_members(
        self, state: ClusterState, suspects: Set[ASN]
    ) -> Set[ASN]:
        """Suspects inside the cluster holding the most of them."""
        best: Set[ASN] = set()
        for cluster in state.clusters():
            overlap = suspects & cluster
            if len(overlap) > len(best):
                best = overlap
        return best

    def _is_poisoning(self, index: int) -> bool:
        if not self.schedule:
            return False
        return getattr(self.schedule[index], "phase", "") == PHASE_POISONING

    # -- the decision interface ----------------------------------------

    def propose(
        self,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> Optional[int]:
        if not self.remaining:
            return None
        matrix = self.label_matrix(state)
        rows = np.asarray(self.remaining)
        target = self._target_members(state, self._suspects(state))
        if len(target) > 1:
            phase = np.array(
                [0 if self._is_poisoning(index) else 1 for index in rows]
            )
            best = best_bisection(matrix, rows, target, rank=phase)
            if best is not None:
                return best
        # The suspect cluster cannot be split (or is a singleton while
        # the walk hasn't formally converged): take the best global
        # unweighted split so the walk never stalls short of the base
        # convergence condition.
        return self._at(best_split(matrix.split_gains(self.remaining, state)))

    def observe(
        self,
        index: int,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> None:
        suspects = self._suspects(state)
        target = self._target_members(state, suspects)
        maps = self.catchment_maps[index]
        super().observe(index, state, volume_by_as)
        if len(target) <= 1:
            return
        working = ClusterState(target)
        if not working.refine_with_catchments(maps):
            return  # no shift observed; the suspect set stands
        volumes = volume_by_as or {}
        best_piece: Optional[Set[ASN]] = None
        best_key: Optional[Tuple[float, int, ASN]] = None
        for piece in working.clusters():
            volume = sum(volumes.get(asn, 0.0) for asn in piece)
            key = (-volume, len(piece), min(piece))
            if best_key is None or key < best_key:
                best_key = key
                best_piece = set(piece)
        assert best_piece is not None
        self._suspect_set = best_piece

    def converged(
        self,
        state: ClusterState,
        volume_by_as: Optional[Mapping[ASN, float]] = None,
    ) -> Optional[str]:
        suspects = self._suspects(state)
        if len(suspects) == 1:
            return f"suspect set narrowed to AS {next(iter(suspects))}"
        return super().converged(state, volume_by_as)

    # -- checkpointing --------------------------------------------------

    def extra_state(self) -> Mapping:
        return {
            "suspects": (
                sorted(self._suspect_set)
                if self._suspect_set is not None
                else None
            )
        }

    def restore_extra(self, payload: Mapping) -> None:
        suspects = payload.get("suspects")
        self._suspect_set = (
            set(suspects) if suspects is not None else None
        )
