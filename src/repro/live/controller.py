"""Attack-time control loop: what to announce next, and when to stop.

During an attack every configuration costs real time — a
:class:`~repro.core.timeline.CampaignTimeline` dwell — so the order
matters and so does knowing when more configurations cannot help.  The
controller owns the dwell ledger, stop thresholds, and remeasurement
bookkeeping, and delegates the *selection* decision to a pluggable
:class:`~repro.strategy.TracebackStrategy` (chosen by registry name via
``ControllerPolicy.strategy``; default ``"greedy"``):

* **reorder** — among the remaining configurations, deploy the one the
  strategy proposes; the default greedy plugin maximizes the
  lexicographic ``(weighted cost reduction, split gain)`` score against
  the live attributor's rolling volume estimates (the §VIII volume-aware
  objective, falling back to plain split gain before any volume has been
  attributed — as an explicit tuple component, not a ``* 1e-9`` scaled
  score that float noise could outrank),
* **short-circuit** — stop when no remaining configuration can split
  anything, when attribution entropy collapsed below a threshold, or when
  the top cluster concentrates enough estimated volume,
* **remeasure** — when observed route churn misplaces more than a
  threshold fraction of sources, declare the catchment maps stale and
  charge the dwell cost of re-measuring every deployed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..bgp.announcement import AnnouncementConfig
from ..core.timeline import CampaignTimeline
from ..errors import LiveServiceError
from ..strategy import make_strategy
from ..types import Catchment, LinkId
from .attributor import LiveAttributor


@dataclass(frozen=True)
class ControllerPolicy:
    """Knobs of the attack-time control loop.

    Attributes:
        strategy: registry name of the traceback strategy consulted for
            each selection (default the paper's greedy; ``"schedule"``
            deploys in schedule order, the batch behaviour; see
            :func:`repro.strategy.available_strategies`).
        strategy_seed: seed handed to the strategy for any internal
            randomness (e.g. the ``random`` baseline's shuffle).
        min_configs: never short-circuit before this many configurations.
        stop_entropy: stop once attribution entropy (bits) falls below
            this (None = never stop on entropy).
        stop_volume_share: stop once the top-ranked cluster holds at
            least this share of the estimated volume *and* is a singleton
            (None = never stop on concentration).
        churn_remeasure_threshold: misplaced-source fraction above which
            a churn event invalidates the stale catchment maps.
    """

    strategy: str = "greedy"
    strategy_seed: int = 0
    min_configs: int = 3
    stop_entropy: Optional[float] = None
    stop_volume_share: Optional[float] = None
    churn_remeasure_threshold: float = 0.02

    def __post_init__(self) -> None:
        if self.min_configs < 1:
            raise LiveServiceError("min_configs must be at least 1")
        if self.stop_volume_share is not None and not (
            0.0 < self.stop_volume_share <= 1.0
        ):
            raise LiveServiceError("stop_volume_share must be in (0, 1]")
        if not 0.0 <= self.churn_remeasure_threshold <= 1.0:
            raise LiveServiceError(
                "churn_remeasure_threshold must be in [0, 1]"
            )


class AdaptiveController:
    """Selects the next configuration and accounts campaign dwell time.

    Args:
        schedule: the full (possibly truncated) announcement schedule.
        catchment_maps: pre-measured catchment maps aligned with
            ``schedule``, restricted to the analysis universe — the
            paper's attack-time setting, where catchments were measured
            before the attack and deployment only reads counters.
        timeline: dwell-cost model each deployment is charged against.
        policy: control knobs.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            selection and remeasurement decisions are counted as they
            happen (per-phase selection counters, remeasure triggers).
    """

    def __init__(
        self,
        schedule: Sequence[AnnouncementConfig],
        catchment_maps: Sequence[Mapping[LinkId, Catchment]],
        timeline: Optional[CampaignTimeline] = None,
        policy: Optional[ControllerPolicy] = None,
        registry=None,
        bus=None,
    ) -> None:
        if len(schedule) != len(catchment_maps):
            raise LiveServiceError(
                f"{len(schedule)} configurations vs "
                f"{len(catchment_maps)} catchment maps"
            )
        if not schedule:
            raise LiveServiceError("controller needs a non-empty schedule")
        self.schedule = list(schedule)
        self.timeline = timeline or CampaignTimeline()
        self.policy = policy or ControllerPolicy()
        self.registry = registry
        self.bus = bus
        self.strategy = make_strategy(
            self.policy.strategy, seed=self.policy.strategy_seed
        )
        self.strategy.bind(catchment_maps, schedule=self.schedule)
        self.configs_consumed = 0
        self.dwell_minutes = 0.0
        self.remeasurements = 0

    # ------------------------------------------------------------------
    # Strategy-backed views
    # ------------------------------------------------------------------

    @property
    def remaining(self) -> List[int]:
        """Schedule indices not yet deployed (owned by the strategy)."""
        return self.strategy.remaining

    @property
    def catchment_maps(self) -> List[Dict[LinkId, Catchment]]:
        """The strategy's working catchment maps, aligned with the schedule."""
        return self.strategy.catchment_maps

    @catchment_maps.setter
    def catchment_maps(
        self, fresh_maps: Sequence[Mapping[LinkId, Catchment]]
    ) -> None:
        self.strategy.update_catchments(fresh_maps)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select_next(self, attributor: LiveAttributor) -> Optional[int]:
        """Pick, consume, and dwell-charge the next schedule index.

        Returns None when the schedule is exhausted.  The strategy is fed
        the attributor's partition and rolling volume estimates; before
        any volume has been attributed — or when the strategy declines
        to propose — deployment falls back to schedule order.  A
        schedule-order strategy never reads the estimates, so none are
        solved for it.  Built-in strategies tie-break toward the lowest
        schedule index, so selection is deterministic.
        """
        if not self.remaining:
            return None
        volume_by_as = None
        if (
            attributor.configs_applied > 0
            and not self.strategy.deploys_in_schedule_order
        ):
            volume_by_as = attributor.volume_by_as()
            proposed = self.strategy.propose(attributor.state, volume_by_as)
            choice = proposed if proposed is not None else self.remaining[0]
        else:
            choice = self.remaining[0]
        self.strategy.observe(choice, attributor.state, volume_by_as)
        self.configs_consumed += 1
        self.dwell_minutes += self.timeline.minutes_per_config
        if self.registry is not None:
            self.registry.counter(
                "repro_live_configs_selected_total",
                help="configurations selected by the controller, by phase",
                labels={"phase": self.schedule[choice].phase},
            ).inc()
        if self.bus is not None:
            self.bus.publish(
                "select",
                schedule_index=choice,
                phase=self.schedule[choice].phase,
                configs_consumed=self.configs_consumed,
            )
        return choice

    def should_stop(self, attributor: LiveAttributor) -> Optional[str]:
        """Short-circuit reason, or None to keep deploying."""
        if attributor.configs_applied < self.policy.min_configs:
            return None
        if self.remaining:
            # Volume estimates are deliberately not passed here: reading
            # them would force an attribution solve outside the normal
            # window cadence.  Base strategies stop when no remaining
            # configuration splits any cluster; strategy-specific
            # convergence (e.g. a singleton suspect set) surfaces too.
            reason = self.strategy.converged(attributor.state, None)
            if reason is not None:
                return reason
        if self.policy.stop_entropy is not None:
            entropy = attributor.attribution_entropy()
            if attributor.attribution() is not None and (
                entropy <= self.policy.stop_entropy
            ):
                return (
                    f"attribution entropy {entropy:.3f} ≤ "
                    f"{self.policy.stop_entropy:.3f} bits"
                )
        if self.policy.stop_volume_share is not None:
            result = attributor.attribution()
            if result is not None and result.ranked:
                top = result.ranked[0]
                total = sum(c.estimated_volume for c in result.ranked)
                if (
                    total > 0
                    and top.size == 1
                    and top.estimated_volume / total
                    >= self.policy.stop_volume_share
                ):
                    return (
                        f"singleton cluster holds "
                        f"{top.estimated_volume / total:.0%} of estimated volume"
                    )
        return None

    # ------------------------------------------------------------------
    # Churn / remeasurement
    # ------------------------------------------------------------------

    def needs_remeasure(self, misplaced: float) -> bool:
        """Whether a churn event's misplacement invalidates the maps."""
        return misplaced > self.policy.churn_remeasure_threshold

    def apply_remeasurement(
        self,
        fresh_maps: Sequence[Mapping[LinkId, Catchment]],
        deployed_count: int,
    ) -> None:
        """Swap in fresh maps and charge the remeasurement dwell.

        ``fresh_maps`` must cover the whole schedule (deployed and
        remaining); re-measuring the ``deployed_count`` already-active
        configurations costs one dwell each.
        """
        if len(fresh_maps) != len(self.schedule):
            raise LiveServiceError(
                f"{len(fresh_maps)} remeasured maps for "
                f"{len(self.schedule)}-configuration schedule"
            )
        self.strategy.update_catchments(fresh_maps)
        self.remeasurements += 1
        self.dwell_minutes += deployed_count * self.timeline.minutes_per_config
        if self.registry is not None:
            self.registry.counter(
                "repro_live_remeasurements_total",
                help="full catchment remeasurements triggered by churn",
            ).inc()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def as_serializable(self) -> Dict:
        """JSON-safe dump of the controller's mutable state."""
        return {
            "remaining": list(self.remaining),
            "configs_consumed": self.configs_consumed,
            "dwell_minutes": self.dwell_minutes,
            "remeasurements": self.remeasurements,
            "strategy_state": self.strategy.extra_state(),
        }

    def restore(self, payload: Mapping) -> None:
        """Restore mutable state dumped by :meth:`as_serializable`.

        ``strategy_state`` is optional so pre-strategy (schema v1/v2)
        checkpoints restore cleanly with default strategy beliefs.
        """
        self.strategy.restore_remaining(payload["remaining"])
        self.strategy.restore_extra(payload.get("strategy_state") or {})
        self.configs_consumed = int(payload["configs_consumed"])
        self.dwell_minutes = float(payload["dwell_minutes"])
        self.remeasurements = int(payload["remeasurements"])
