"""ASCII live dashboard over the observability event stream.

``spooftrack dash`` renders this: a terminal view of an attribution run
assembled purely from :class:`~repro.obs.bus.EventBus` events (live over
SSE, or replayed from a seeded run), so it works against a local run and
against a remote ``--serve`` endpoint alike.  The charts reuse
:func:`~repro.analysis.ascii_plot.plot_series` — entropy and cluster
count per window are exactly the curves an operator aborts or extends a
live traceback on (BGPeek-a-Boo's in-flight monitoring argument).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from .ascii_plot import PlotOptions, plot_series
from .figures import Series

#: Default plot raster (narrower than the figure default: two charts
#: must fit a standard terminal alongside their axis gutters).
DASH_PLOT = PlotOptions(width=56, height=10)


class Dashboard:
    """Accumulates bus events and renders a terminal dashboard.

    Feed events (dicts with at least ``kind``) through :meth:`ingest`;
    :meth:`render` returns the current full-screen text.  The dashboard
    is pure state-in/text-out — no threads, no I/O — so it is trivially
    testable and deterministic given a deterministic event sequence.

    Args:
        plot_options: chart raster (default fits a standard terminal).
    """

    def __init__(self, plot_options: Optional[PlotOptions] = None) -> None:
        self.plot_options = plot_options or DASH_PLOT
        self.windows: List[Mapping] = []
        self.phases: List[Mapping] = []
        self.faults: Dict[str, int] = {}
        self.churn_events = 0
        self.remeasurements = 0
        self.checkpoints = 0
        self.selects: List[Mapping] = []
        self.engine: Dict[str, float] = {}
        self.pipeline: Optional[Mapping] = None
        self.report: Optional[Mapping] = None
        self.events_seen = 0

    # -- ingestion ------------------------------------------------------

    def ingest(self, event: Mapping) -> None:
        """Fold one bus event into the dashboard state."""
        self.events_seen += 1
        kind = event.get("kind")
        if kind == "window":
            self.windows.append(event)
        elif kind == "phase":
            self.phases.append(event)
        elif kind == "fault":
            name = str(event.get("fault_kind", "unknown"))
            self.faults[name] = self.faults.get(name, 0) + int(
                event.get("count", 1)
            )
        elif kind == "churn":
            self.churn_events += 1
            if event.get("remeasured"):
                self.remeasurements += 1
        elif kind == "checkpoint":
            self.checkpoints += 1
        elif kind == "select":
            self.selects.append(event)
        elif kind == "engine_batch":
            for key, value in event.items():
                if isinstance(value, (int, float)) and key not in ("seq",):
                    self.engine[key] = self.engine.get(key, 0) + value
        elif kind == "pipeline":
            self.pipeline = event
        elif kind == "report":
            self.report = event

    # -- rendering ------------------------------------------------------

    def _series(self, field: str, name: str) -> Optional[Series]:
        points = [
            (float(w.get("window_index", i)), float(w[field]))
            for i, w in enumerate(self.windows)
            if field in w
        ]
        if not points:
            return None
        return Series(name=name, points=tuple(points))

    def _header_lines(self) -> List[str]:
        lines = [f"events {self.events_seen}"]
        if self.windows:
            latest = self.windows[-1]
            lines[-1] += (
                f" · window {latest.get('window_index')}"
                f" · clusters {latest.get('num_clusters')}"
                f" · entropy {float(latest.get('entropy', 0.0)):.3f} bits"
            )
            offered = float(latest.get("offered_volume", 0.0) or 0.0)
            dropped = float(latest.get("dropped_volume", 0.0) or 0.0)
            if offered > 0:
                lines.append(
                    f"ingest: offered {offered:g} · dropped {dropped:g} "
                    f"({dropped / offered:.1%})"
                )
        if self.selects:
            latest = self.selects[-1]
            lines.append(
                f"controller: config #{latest.get('schedule_index')} "
                f"({latest.get('phase')}) · "
                f"{latest.get('configs_consumed')} consumed"
            )
        if self.engine:
            lines.append(
                "engine: "
                f"{int(self.engine.get('configs_simulated', 0))} simulated · "
                f"{int(self.engine.get('cache_hits', 0))} cache hits"
            )
        if self.faults:
            fired = ", ".join(
                f"{kind}×{count}" for kind, count in sorted(self.faults.items())
            )
            lines.append(f"faults: {fired}")
        if self.churn_events:
            lines.append(
                f"churn: {self.churn_events} strikes · "
                f"{self.remeasurements} remeasurements · "
                f"{self.checkpoints} checkpoints"
            )
        if self.pipeline is not None:
            lines.append(
                f"pipeline: {self.pipeline.get('steps')} steps · "
                f"{self.pipeline.get('clusters')} clusters · "
                f"{self.pipeline.get('degraded_steps')} degraded"
            )
        return lines

    def render(self) -> str:
        """The full dashboard as text (header, then charts when data allows)."""
        lines = ["spooftrack dash", "=" * 15]
        lines.extend(self._header_lines())
        entropy = self._series("entropy", "entropy (bits)")
        clusters = self._series("num_clusters", "clusters")
        for series in (entropy, clusters):
            if series is None or len(series.points) < 2:
                continue
            lines.append("")
            lines.append(series.name + " by window")
            lines.append(plot_series([series], self.plot_options))
        if self.report is not None:
            lines.append("")
            lines.append("final: " + str(self.report.get("summary", "done")))
        return "\n".join(lines)
