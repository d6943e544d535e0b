"""Aligned text tables for experiment output."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    float_format: str = "{:.2f}",
) -> str:
    """Render rows as an aligned monospace table.

    Floats are formatted with ``float_format``; everything else with
    ``str``.  Columns are right-aligned except the first.  No columns (an
    empty query result) render as the empty table, ``""``.
    """
    if not headers:
        return ""

    def _cell(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    header_cells = [
        headers[0].ljust(widths[0]),
        *(headers[i].rjust(widths[i]) for i in range(1, len(headers))),
    ]
    lines.append("  ".join(header_cells))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        lines.append("  ".join(cells))
    return "\n".join(lines)
