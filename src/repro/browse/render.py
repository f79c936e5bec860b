"""Text rendering of browsing results, in the paper's table style.

The paper displays a navigation answer as a table headed by the
template, with one column per relationship and the related entities
listed beneath (§4.1).  These renderers reproduce that layout with
plain monospaced text.  :func:`format_table` is the row-per-record
table that EXPLAIN ANALYZE, the telemetry summary and the benchmark
reports print.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from ..core.facts import Template, Variable

_COLUMN_GAP = 2
_MIN_WIDTH = 3


def _template_title(pattern: Template) -> str:
    parts = []
    for component in pattern:
        if isinstance(component, Variable):
            parts.append("*" if component.name.startswith("_star")
                         else f"?{component.name}")
        else:
            parts.append(component)
    return "(" + ", ".join(parts) + ")"


def format_columns(title: str, headers: Sequence[str],
                   columns: Sequence[Sequence[str]]) -> str:
    """A column-per-header table, values listed beneath each header."""
    widths = []
    for header, column in zip(headers, columns):
        cells = [header] + list(column)
        widths.append(max([_MIN_WIDTH] + [len(c) for c in cells]))
    depth = max([0] + [len(c) for c in columns])
    gap = " " * _COLUMN_GAP
    lines = [title]
    lines.append(gap.join(
        header.ljust(width) for header, width in zip(headers, widths)))
    lines.append(gap.join("-" * width for width in widths))
    for row in range(depth):
        cells = []
        for column, width in zip(columns, widths):
            cell = column[row] if row < len(column) else ""
            cells.append(cell.ljust(width))
        lines.append(gap.join(cells).rstrip())
    return "\n".join(line.rstrip() for line in lines)


def format_value(value: object) -> str:
    """Render one cell: floats compactly, everything else via ``str``.

    Floats use fixed-point with up to four decimals; scientific
    notation only when fixed-point would collapse the value to zero
    (so ``0.0009999`` renders ``0.001`` like its neighbors, not
    ``1.00e-03``).  Negative values mirror positive ones exactly.
    """
    if isinstance(value, float):
        if value == 0:
            return "0"
        text = f"{value:.4f}".rstrip("0").rstrip(".")
        if text.lstrip("-") == "0":
            return f"{value:.2e}"
        return text
    return str(value)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """A fixed-width text table."""
    text_rows = [[format_value(cell) for cell in row] for row in rows]
    widths = [
        max([len(header)] + [len(row[i]) for row in text_rows])
        for i, header in enumerate(headers)
    ]
    gap = "  "
    lines = [gap.join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append(gap.join("-" * w for w in widths))
    for row in text_rows:
        lines.append(gap.join(
            cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_navigation(result) -> str:
    """Render a :class:`~repro.browse.navigation.NavigationResult`."""
    title = _template_title(result.pattern)
    if result.is_empty():
        return f"{title}\n(no facts)"
    headers = result.relationships()
    columns: List[List[str]] = []
    for relationship in headers:
        entries = result.groups[relationship]
        cells: List[str] = []
        for entry in entries:
            if isinstance(entry, tuple):
                cells.append(" -> ".join(entry))
            else:
                cells.append(entry)
        columns.append(cells)
    return format_columns(title, headers, columns)


def render_relation_table(header_cells: Sequence[str],
                          rows: Sequence[Sequence[Union[str, Tuple[str, ...]]]]) -> str:
    """Render the ``relation(...)`` operator's (possibly non-1NF) table
    (§6.1): multi-valued cells are comma-joined within one row."""
    def cell_text(cell) -> str:
        if isinstance(cell, tuple):
            return ", ".join(cell) if cell else "-"
        return cell

    table_rows = [[cell_text(cell) for cell in row] for row in rows]
    widths = [
        max([len(header)] + [len(row[i]) for row in table_rows] + [_MIN_WIDTH])
        for i, header in enumerate(header_cells)
    ]
    gap = " " * _COLUMN_GAP
    lines = [gap.join(h.ljust(w) for h, w in zip(header_cells, widths))]
    lines.append(gap.join("-" * w for w in widths))
    for row in table_rows:
        lines.append(gap.join(
            cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(line.rstrip() for line in lines)
