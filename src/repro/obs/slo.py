"""Declarative SLO watchdogs over the live telemetry stream.

BGPeek-a-Boo's operational point applies here: active BGP traceback is
run *during* an attack, so the operator needs to know — while the run is
still going — when the runtime stops keeping up.  A :class:`SloWatchdog`
encodes that judgement declaratively: each :class:`SloRule` names one
service-level indicator, its breach threshold, and the direction of
badness.  The watchdog rides the :class:`~repro.obs.bus.EventBus` as a
synchronous listener, evaluates the relevant rules against each event,
and on a breach

* increments ``repro_slo_breached_total{slo="..."}`` in the registry,
* records the breach detail, and
* flips :attr:`SloWatchdog.ready` to False — which the
  :class:`~repro.obs.server.ObsServer` surfaces as a 503 on ``/readyz``.

Thresholds compare *measured or derived* values, so breaches are not part
of the deterministic event layer — a slow machine may trip
``window_lag_seconds`` where a fast one does not.  That is the point: the
SLOs watch the service, not the science.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SloRule:
    """One service-level objective: indicator, threshold, direction.

    Attributes:
        name: indicator name (the ``slo`` label on the breach counter).
        description: what the indicator measures.
        threshold: breach boundary.
        comparison: ``"gt"`` breaches when value > threshold (default),
            ``"lt"`` when value < threshold.
    """

    name: str
    description: str
    threshold: float
    comparison: str = "gt"

    def __post_init__(self) -> None:
        if self.comparison not in ("gt", "lt"):
            raise ValueError(f"unknown comparison {self.comparison!r}")

    def breached(self, value: float) -> bool:
        if self.comparison == "gt":
            return value > self.threshold
        return value < self.threshold


#: The default watchdog set: the three ways the live service degrades.
DEFAULT_SLOS: Tuple[SloRule, ...] = (
    SloRule(
        "window_lag_seconds",
        "wall seconds to process one observation window",
        5.0,
    ),
    SloRule(
        "ingest_drop_rate",
        "cumulative dropped/offered volume fraction at the ingest queue",
        0.25,
    ),
    SloRule(
        "degraded_link_fraction",
        "fraction of deployed configurations with partial (degraded) catchments",
        0.5,
    ),
)


class SloWatchdog:
    """Evaluates :class:`SloRule` s against the event stream.

    Args:
        rules: the objectives to watch (default :data:`DEFAULT_SLOS`).
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            breaches increment ``repro_slo_breached_total{slo=name}``.

    Attach to a bus with ``bus.attach(watchdog.observe)``; values can
    also be fed directly through :meth:`check`.
    """

    def __init__(
        self,
        rules: Sequence[SloRule] = DEFAULT_SLOS,
        registry=None,
    ) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO rule names")
        self.rules: Dict[str, SloRule] = {rule.name: rule for rule in rules}
        self.registry = registry
        self.breaches: Dict[str, str] = {}
        self.trip_counts: Dict[str, int] = {}
        self.checks = 0

    @property
    def ready(self) -> bool:
        """True while no objective has ever been breached."""
        return not self.breaches

    def status(self) -> Dict[str, object]:
        """JSON-safe readiness summary (the ``/readyz`` body)."""
        return {
            "ready": self.ready,
            "checks": self.checks,
            "breaches": dict(self.breaches),
            "trips": dict(self.trip_counts),
        }

    # -- evaluation -----------------------------------------------------

    def check(self, name: str, value: float, detail: str = "") -> bool:
        """Evaluate one indicator sample; returns True when within SLO."""
        rule = self.rules.get(name)
        if rule is None:
            return True
        self.checks += 1
        if not rule.breached(value):
            return True
        self.trip_counts[name] = self.trip_counts.get(name, 0) + 1
        self.breaches[name] = detail or (
            f"{value:g} breaches {rule.comparison} {rule.threshold:g}"
        )
        if self.registry is not None:
            self.registry.counter(
                "repro_slo_breached_total",
                help="SLO threshold breaches, by objective",
                labels={"slo": name},
            ).inc()
        return False

    def observe(self, event: Mapping) -> None:
        """Bus listener: route one event to the rules it feeds."""
        kind = event.get("kind")
        if kind == "window":
            duration = event.get("duration_seconds")
            if duration is not None:
                self.check(
                    "window_lag_seconds",
                    float(duration),
                    f"window {event.get('window_index')} took {duration:g}s",
                )
            offered = float(event.get("offered_volume", 0.0) or 0.0)
            dropped = float(event.get("dropped_volume", 0.0) or 0.0)
            if offered > 0:
                rate = dropped / offered
                self.check(
                    "ingest_drop_rate",
                    rate,
                    f"dropped {rate:.1%} of offered volume",
                )
        elif kind == "pipeline":
            steps = int(event.get("steps", 0) or 0)
            degraded = int(event.get("degraded_steps", 0) or 0)
            if steps > 0:
                fraction = degraded / steps
                self.check(
                    "degraded_link_fraction",
                    fraction,
                    f"{degraded}/{steps} configurations degraded",
                )
