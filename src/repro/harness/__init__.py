"""Experiment harness: runners, statistics, and table/figure printers."""

from .runner import (
    DEFAULT_MEMBER_LIMIT,
    DEFAULT_TIMEOUT_SECONDS,
    DEFAULT_TUPLES_PER_DATABASE,
    DatabaseRun,
    run_database,
    run_scenario,
    sample_answer_tuples,
)
from .stats import BoxStats, box_stats, mean, quantile
from .tables import (
    figure_build_times,
    figure_comparison,
    figure_delays,
    render_table,
    table1,
)

__all__ = [
    "BoxStats",
    "DEFAULT_MEMBER_LIMIT",
    "DEFAULT_TIMEOUT_SECONDS",
    "DEFAULT_TUPLES_PER_DATABASE",
    "DatabaseRun",
    "box_stats",
    "figure_build_times",
    "figure_comparison",
    "figure_delays",
    "mean",
    "quantile",
    "render_table",
    "run_database",
    "run_scenario",
    "sample_answer_tuples",
    "table1",
]
