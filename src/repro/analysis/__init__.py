"""Evaluation analysis: statistics, figure runners, tables, reporting."""

from .figures import (
    DISTRIBUTION_SERIES_NAMES,
    FIGURE_RUNNERS,
    PHASE_SERIES_NAMES,
    EvaluationRun,
    FigureResult,
    Series,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
)
from .ascii_plot import PlotOptions, plot_figure, plot_series
from .headline import HeadlineMetric, headline_metrics, render_headline
from .live import render_window, render_window_table
from .report import figure_markdown, render_figure, render_series
from .stats import (
    ccdf_points,
    cdf_points,
    fraction_at_least,
    mean,
    percentile,
    summarize_sizes,
)
from .tables import TABLE2_ROWS, Table, table1, table2

__all__ = [
    "EvaluationRun",
    "FigureResult",
    "Series",
    "FIGURE_RUNNERS",
    "PHASE_SERIES_NAMES",
    "DISTRIBUTION_SERIES_NAMES",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "render_figure",
    "render_series",
    "figure_markdown",
    "plot_figure",
    "plot_series",
    "PlotOptions",
    "HeadlineMetric",
    "headline_metrics",
    "render_headline",
    "render_window",
    "render_window_table",
    "Table",
    "table1",
    "table2",
    "TABLE2_ROWS",
    "ccdf_points",
    "cdf_points",
    "percentile",
    "mean",
    "fraction_at_least",
    "summarize_sizes",
]
