"""Plain-text reporting for benchmark sweeps.

Benchmarks print the same rows/series the experiment index in DESIGN.md
promises; these formatters keep that output uniform and diffable.
The cell and table formatters live in :mod:`repro.browse.render`,
beside the browser's own text tables, so the serving code that prints
tables does not import this package.
"""

from __future__ import annotations

from typing import Optional

from ..browse.render import format_table, format_value
from .harness import Sweep

__all__ = ["format_sweep", "format_table", "format_value", "print_sweep"]


def format_sweep(sweep: Sweep, title: Optional[str] = None) -> str:
    """Render a sweep as a table, preceded by a title line."""
    columns = sweep.columns()
    rows = [[row.get(column, "") for column in columns]
            for row in sweep.rows]
    heading = title if title is not None else sweep.name
    return f"== {heading} ==\n" + format_table(columns, rows)


def print_sweep(sweep: Sweep, title: Optional[str] = None) -> None:
    print()
    print(format_sweep(sweep, title))
