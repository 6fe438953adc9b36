"""Plain-text table rendering for benchmark output.

The benchmark harness prints the same rows the paper's tables report;
these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render a list of row mappings as an aligned text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    separator = "-" * len(header)
    body = [
        "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        for row in rows
    ]
    lines = ([title, header, separator] if title else [header, separator]) + body
    return "\n".join(lines)


def render_comparison(
    table: Dict[str, Dict[str, float]], title: str = ""
) -> str:
    """Render a Table 4-style comparison: one column per graph, one row per
    statistic."""
    column_names = list(table.keys())
    statistic_names: List[str] = list(next(iter(table.values())).keys())
    rows = []
    for statistic in statistic_names:
        row: Dict[str, object] = {"Statistic": statistic}
        for column in column_names:
            row[column] = table[column].get(statistic, "")
        rows.append(row)
    return render_table(rows, columns=["Statistic"] + column_names, title=title)
