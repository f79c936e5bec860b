"""Observability: one telemetry spine plus its consumers.

This package answers "where did the time go?" and "how is the service
doing?" for every layer of the system — the fact store, the closure
engines, the query engines, the browsers and the serving stack all
report into one process-local :class:`Telemetry` object when telemetry
is enabled, and pay a single attribute lookup per site when it is not.

Typical use::

    from repro import obs

    telemetry = obs.enable_telemetry()
    db.query("(x, EARNS, y)")
    print(obs.summary(telemetry))
    obs.disable_telemetry()

or, scoped to one operation::

    with obs.use_telemetry(obs.Telemetry()) as telemetry:
        db.closure()
    print(telemetry.counters["engine.rounds"])

Note this is distinct from ``Database(trace=True)``, which records
*derivation provenance* (why a fact holds); telemetry records
*execution behavior* (what ran, how often, how long).

Around the spine (:mod:`repro.obs.telemetry`: counters, gauges,
histograms, per-thread span stacks, mergeable snapshots, Prometheus
exposition) sit its consumers: :mod:`repro.obs.context` (trace contexts
whose span records ride back on responses so the client ends up
holding the stitched tree), :mod:`repro.obs.slowlog` (bounded
slow-query ring buffer), :mod:`repro.obs.export` (JSON lines / text
summary) and :mod:`repro.obs.monitor` (text dashboard rendered from
snapshots).
"""

from .context import (
    SpanRecord,
    TraceContext,
    new_span_id,
    render_trace,
    stitch,
    trace_processes,
)
from .export import read_jsonl, summary, to_events, write_jsonl
from .monitor import dashboard_rows, render_dashboard
from .slowlog import SlowQueryLog, build_record, plan_summary
from .telemetry import (
    LAST_REQUEST,
    NULL_SPAN,
    NULL_TELEMETRY,
    ConjunctStats,
    GaugeAggregate,
    Histogram,
    NullTelemetry,
    Span,
    Telemetry,
    active_telemetry,
    disable_telemetry,
    enable_telemetry,
    merge_snapshots,
    parse_prometheus,
    pattern_shape,
    telemetry_enabled,
    to_prometheus,
    use_telemetry,
)

__all__ = [
    "ConjunctStats", "GaugeAggregate", "Histogram", "LAST_REQUEST",
    "NULL_SPAN", "NULL_TELEMETRY", "NullTelemetry", "Span", "Telemetry",
    "active_telemetry", "disable_telemetry", "enable_telemetry",
    "merge_snapshots", "parse_prometheus", "pattern_shape",
    "telemetry_enabled", "to_prometheus", "use_telemetry",
    "read_jsonl", "summary", "to_events", "write_jsonl",
    "SpanRecord", "TraceContext", "new_span_id", "render_trace",
    "stitch", "trace_processes",
    "SlowQueryLog", "build_record", "plan_summary",
    "dashboard_rows", "render_dashboard",
]
