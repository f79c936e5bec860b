"""Exporters for collected telemetry.

Two formats:

* **JSON lines** — one event per line (spans preorder with parent
  references, then counters, gauges, and conjunct records), suitable
  for offline analysis or attaching to a benchmark artifact;
* **text summary** — a fixed-width report reusing
  :func:`repro.browse.render.format_table`, what the shell's
  ``profile`` command prints.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Union

from ..browse.render import format_table
from .telemetry import Telemetry


def to_events(telemetry: Telemetry) -> List[Dict[str, Any]]:
    """Flatten a spine into a list of event dicts.

    Spans are numbered preorder; each carries the id of its parent so
    the tree is reconstructible.  Attribute values are kept as-is (they
    must be JSON-serializable to survive :func:`write_jsonl`).
    """
    events: List[Dict[str, Any]] = []
    ids: Dict[int, int] = {}
    next_id = 0
    for root in telemetry.roots:
        for span in root.walk():
            ids[id(span)] = next_id
            events.append({
                "type": "span",
                "id": next_id,
                "parent": (ids[id(span.parent)]
                           if span.parent is not None else None),
                "name": span.name,
                "wall": span.wall,
                "cpu": span.cpu,
                "attributes": dict(span.attributes),
            })
            next_id += 1
    for name in sorted(telemetry.counters):
        events.append({"type": "counter", "name": name,
                       "value": telemetry.counters[name]})
    for name in sorted(telemetry.gauges):
        stats = telemetry.gauges[name]
        events.append({"type": "gauge", "name": name, "value": stats.last,
                       "min": stats.min, "max": stats.max,
                       "mean": stats.mean, "count": stats.count})
    for key in sorted(telemetry.conjuncts):
        stats = telemetry.conjuncts[key]
        events.append({"type": "conjunct", "key": key,
                       "evals": stats.evals, "rows": stats.rows,
                       "estimate_total": stats.estimate_total})
    return events


def write_jsonl(telemetry: Telemetry, destination: Union[str, Any]) -> int:
    """Write the spine's events as JSON lines; returns the event count.

    ``destination`` is a path or an open text file.
    """
    events = to_events(telemetry)
    if hasattr(destination, "write"):
        for event in events:
            destination.write(json.dumps(event, ensure_ascii=False) + "\n")
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, ensure_ascii=False) + "\n")
    return len(events)


def read_jsonl(source: Union[str, Any]) -> List[Dict[str, Any]]:
    """Read back a JSON-lines event log written by :func:`write_jsonl`."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _aggregate_spans(telemetry: Telemetry) -> List[List[object]]:
    """Rows (name, count, total wall s, total cpu s) aggregated by
    span name, sorted by total wall time descending."""
    totals: Dict[str, List[float]] = {}
    for root in telemetry.roots:
        for span in root.walk():
            entry = totals.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.wall
            entry[2] += span.cpu
    rows = [[name, int(entry[0]), entry[1], entry[2]]
            for name, entry in totals.items()]
    rows.sort(key=lambda row: row[2], reverse=True)
    return rows


def summary(telemetry: Telemetry, title: str = "trace summary") -> str:
    """A fixed-width text report of everything the spine collected."""
    sections: List[str] = [f"== {title} =="]
    span_rows = _aggregate_spans(telemetry)
    if span_rows:
        sections.append(format_table(
            ["span", "count", "wall_s", "cpu_s"], span_rows))
    if telemetry.counters:
        counter_rows = [[name, telemetry.counters[name]]
                        for name in sorted(telemetry.counters)]
        sections.append(format_table(["counter", "value"], counter_rows))
    if telemetry.gauges:
        gauge_rows = [[name, stats.last, stats.min, stats.max, stats.count]
                      for name, stats in sorted(telemetry.gauges.items())]
        sections.append(format_table(
            ["gauge", "last", "min", "max", "count"], gauge_rows))
    if telemetry.conjuncts:
        conjunct_rows = [
            [key, stats.evals, stats.estimate_mean, stats.rows]
            for key, stats in sorted(telemetry.conjuncts.items())
        ]
        sections.append(format_table(
            ["conjunct", "evals", "est_mean", "rows"], conjunct_rows))
    if len(sections) == 1:
        sections.append("(nothing collected)")
    return "\n\n".join(sections)
