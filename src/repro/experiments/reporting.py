"""Plain-text rendering of tables and figure series.

The benchmark harness prints, for every paper table and figure, the same rows
or series the paper reports.  These helpers format lists of dictionaries as
aligned text tables and (sample number, value) series as compact textual
"figures", so benchmark output is readable in a terminal and diffable.  The
scale each paper benchmark runs at is mapped in docs/DESIGN.md ("Paper
benchmarks: the scale map").
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence


def _format_cell(value: object) -> str:
    """Render one table cell."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value != 0 and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:.3g}"
        return f"{value:,.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Format dictionaries as an aligned text table.

    Parameters
    ----------
    rows:
        One mapping per row; missing keys render as ``-``.
    columns:
        Column order; defaults to the keys of the first row.
    title:
        Optional title printed above the table.
    """
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_format_cell(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in rendered:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def format_multi_series(
    named_series: Mapping[str, Mapping[int, float]],
    *,
    x_label: str = "sample_number",
    title: str | None = None,
    log2_x: bool = True,
) -> str:
    """Format several aligned series (e.g. one per algorithm) side by side."""
    all_x = sorted({x for series in named_series.values() for x in series})
    rows = []
    for x in all_x:
        x_render = f"2^{int(math.log2(x))}" if log2_x and x > 0 and (x & (x - 1)) == 0 else str(x)
        row: dict[str, object] = {x_label: x_render}
        for name, series in named_series.items():
            row[name] = series.get(x)
        rows.append(row)
    return format_table(rows, columns=[x_label, *named_series.keys()], title=title)
