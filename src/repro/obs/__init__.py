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
snapshots).  A server runs neither of the last two: the package imports
:mod:`repro.obs.export` when one of its names is first asked for, and
:mod:`repro.obs.monitor` not at all.
"""

from .context import (
    SpanRecord,
    TraceContext,
    new_span_id,
    render_trace,
    stitch,
    trace_processes,
)
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
]

#: Names served from :mod:`repro.obs.export`, imported on first use.
_EXPORT_NAMES = frozenset({"read_jsonl", "summary", "to_events",
                           "write_jsonl"})


def __getattr__(name: str):
    # PEP 562: no serving path exports telemetry, so the exporters are
    # imported on first use.
    if name in _EXPORT_NAMES:
        from . import export

        return getattr(export, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
