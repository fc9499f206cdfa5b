"""Plain-text rendering of experiment tables.

The benchmark harness prints its paper-vs-measured comparisons with this
helper so EXPERIMENTS.md and the pytest ``-s`` output share one format.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table."""
    columns = len(headers)
    cells = [[str(value) for value in row] for row in rows]
    for row in cells:
        if len(row) != columns:
            raise ValueError("row length does not match the header length")
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def render_row(row: Sequence[str]) -> str:
        return " | ".join(value.ljust(widths[index]) for index, value in enumerate(row))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in cells)
    return "\n".join(lines)
