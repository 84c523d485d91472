"""Rendering for live-replay runtime statistics (``repro.live``).

The online service emits one :class:`~repro.live.service.WindowStats` per
observation window; these helpers turn that stream into the rolling
progress lines the ``spooftrack live`` command prints and into a compact
end-of-run table.
"""

from __future__ import annotations

from typing import Sequence

from ..live.service import WindowStats

#: Column layout shared by the rolling line and the table.
_HEADER = (
    f"{'win':>4} {'t(min)':>8} {'configuration':<30} {'clus':>5} "
    f"{'mean':>7} {'H(bits)':>7} {'dropped':>9} {'unattr':>8}"
)


def render_window(stats: WindowStats) -> str:
    """One rolling progress line for a just-emitted window."""
    return (
        f"{stats.window_index:>4} {stats.clock_minutes:>8.1f} "
        f"{stats.config_label:<30.30} {stats.num_clusters:>5} "
        f"{stats.mean_cluster_size:>7.2f} {stats.entropy:>7.2f} "
        f"{stats.dropped_volume:>9.3f} {stats.unattributed_volume:>8.3f}"
    )


def render_window_table(
    windows: Sequence[WindowStats], every: int = 1
) -> str:
    """Tabulate window statistics, keeping every ``every``-th row.

    The final window is always included so the table ends on the state
    the report describes.
    """
    if every < 1:
        raise ValueError("row stride must be at least 1")
    lines = [_HEADER]
    for position, stats in enumerate(windows):
        if position % every == 0 or position == len(windows) - 1:
            lines.append(render_window(stats))
    return "\n".join(lines)
