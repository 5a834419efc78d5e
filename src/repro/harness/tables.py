"""ASCII renderers that print the paper's tables and figures as text.

The benchmarks regenerate every table and figure of the evaluation
section; since this is a terminal-first reproduction, bar charts and box
plots are printed as aligned numeric tables (one row per bar / box), which
is the information content of the original figures.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..scenarios.base import Scenario
from .runner import DatabaseRun
from .stats import box_stats


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Align *rows* under *headers* with two-space gutters."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def table1(scenarios: Sequence[Scenario], fact_counts: Optional[dict] = None) -> str:
    """Table 1: scenario inventory (databases, query type, rule count)."""
    rows: List[List[object]] = []
    for scenario in scenarios:
        if fact_counts is not None:
            names = ", ".join(
                f"{db.name} ({fact_counts.get((scenario.name, db.name), '?')})"
                for db in scenario.databases
            )
        else:
            names = ", ".join(db.name for db in scenario.databases)
        rows.append([scenario.name, names, scenario.query_type, scenario.num_rules])
    return render_table(
        ["Scenario", "Databases (facts)", "Query Type", "Number of Rules"], rows
    )


def figure_build_times(runs: Sequence[DatabaseRun], title: str) -> str:
    """Figures 1 / 3: build time (closure + formula) per database & tuple."""
    rows: List[List[object]] = []
    for db_run in runs:
        for run in db_run.tuple_runs:
            rows.append(
                [
                    db_run.database,
                    _fmt_tuple(run.tuple_value),
                    f"{run.closure_seconds:.3f}",
                    f"{run.formula_seconds:.3f}",
                    f"{run.build_seconds:.3f}",
                ]
            )
    table = render_table(
        ["Database", "Tuple", "Closure (s)", "Formula (s)", "Total (s)"], rows
    )
    return f"{title}\n{table}"


def figure_delays(runs: Sequence[DatabaseRun], title: str) -> str:
    """Figures 2 / 4: delay box-plot numbers (ms) per database."""
    rows: List[List[object]] = []
    for db_run in runs:
        delays = db_run.pooled_delays()
        if not delays:
            rows.append([db_run.database, 0, "-", "-", "-", "-", "-"])
            continue
        box = box_stats(delays)
        ms = box.as_row(scale=1000.0)
        rows.append(
            [
                db_run.database,
                box.count,
                f"{ms[0]:.3f}",
                f"{ms[1]:.3f}",
                f"{ms[2]:.3f}",
                f"{ms[3]:.3f}",
                f"{ms[4]:.3f}",
            ]
        )
    table = render_table(
        ["Database", "Members", "Min (ms)", "Q1 (ms)", "Median (ms)", "Q3 (ms)", "Max (ms)"],
        rows,
    )
    return f"{title}\n{table}"


def figure_comparison(
    rows: Sequence[Sequence[object]],
    title: str = "Figure 5: end-to-end why-provenance, SAT-based vs existential-rules style",
) -> str:
    """Figure 5: end-to-end runtimes of the two approaches per tuple."""
    table = render_table(
        ["Scenario", "Tuple", "SAT-based (s)", "All-at-once (s)", "Members"], rows
    )
    return f"{title}\n{table}"


def _fmt_tuple(tup: Sequence[object]) -> str:
    inner = ", ".join(str(t) for t in tup)
    return f"({inner})"
