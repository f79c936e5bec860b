"""Live monitoring dashboard rendered from metrics snapshots.

The dashboard is a pure function of two snapshots: the current one and
the previous one from ``interval`` seconds ago.  Counter deltas divided
by the interval give rates (throughput per request class); histograms
give tail latency; gauges report instantaneous state (queue depth,
publish pause, replica lag).  Nothing here talks to the network — the
shell's ``monitor`` mode feeds it snapshots from a
:class:`~repro.serve.net.ServiceClient` and redraws on a timer, and
tests feed it hand-built snapshots.
"""
from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["dashboard_rows", "render_dashboard"]

_REQUEST_PREFIX = "serve.requests."
_LATENCY_PREFIX = "serve.request_seconds."


def _counter_delta(sample: Dict[str, Any], previous: Optional[Dict[str, Any]],
                   name: str) -> int:
    now = sample.get("counters", {}).get(name, 0)
    if previous is None:
        return now
    before = previous.get("counters", {}).get(name, 0)
    # A restarted process resets counters; clamp instead of reporting
    # a huge negative rate.
    return max(0, now - before)


def _histogram(sample: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
    return sample.get("histograms", {}).get(name)


def _gauge_last(sample: Dict[str, Any], name: str) -> Optional[float]:
    gauge = sample.get("gauges", {}).get(name)
    if gauge is None or not gauge.get("count"):
        return None
    return gauge.get("last")


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000:.2f}ms"


def dashboard_rows(sample: Dict[str, Any],
                   previous: Optional[Dict[str, Any]] = None,
                   interval: float = 1.0) -> List[Dict[str, Any]]:
    """Per-request-class rows: throughput plus latency percentiles."""
    interval = max(interval, 1e-9)
    classes = sorted(
        {name[len(_REQUEST_PREFIX):]
         for name in sample.get("counters", {})
         if name.startswith(_REQUEST_PREFIX)} |
        {name[len(_LATENCY_PREFIX):]
         for name in sample.get("histograms", {})
         if name.startswith(_LATENCY_PREFIX)})
    rows = []
    for request_class in classes:
        delta = _counter_delta(sample, previous,
                               _REQUEST_PREFIX + request_class)
        histogram = _histogram(sample, _LATENCY_PREFIX + request_class)
        rows.append({
            "class": request_class,
            "rate": delta / interval,
            "total": sample.get("counters", {}).get(
                _REQUEST_PREFIX + request_class, 0),
            "p50": histogram.get("p50") if histogram else None,
            "p99": histogram.get("p99") if histogram else None,
        })
    return rows


def render_dashboard(sample: Dict[str, Any],
                     previous: Optional[Dict[str, Any]] = None,
                     interval: float = 1.0,
                     title: str = "repro monitor") -> str:
    """Render a text dashboard from a metrics snapshot.

    ``sample``/``previous`` are :meth:`Telemetry.snapshot` dicts
    (possibly merged across processes).  ``previous`` may be ``None``
    for the first frame, in which case rates cover the process lifetime.
    """
    interval = max(interval, 1e-9)
    lines = [title, "=" * len(title)]

    rows = dashboard_rows(sample, previous, interval)
    total_rate = sum(row["rate"] for row in rows)
    lines.append(f"throughput: {total_rate:,.0f} req/s"
                 f" over {interval:.1f}s window")
    if rows:
        lines.append(f"  {'class':<12} {'req/s':>10} {'p50':>10}"
                     f" {'p99':>10} {'total':>10}")
        for row in rows:
            lines.append(f"  {row['class']:<12} {row['rate']:>10,.0f}"
                         f" {_ms(row['p50']):>10} {_ms(row['p99']):>10}"
                         f" {row['total']:>10,}")

    # Repeats the net layer answered from its memo never reach the
    # service, so the per-class rows above do not count them.
    repeats = _counter_delta(sample, previous, "serve.net.answer_hits")
    computed = _counter_delta(sample, previous, "serve.net.answer_misses")
    if repeats or computed:
        kept = _gauge_last(sample, "serve.net.answer_bytes") or 0
        lines.append(f"answer memo: {repeats / interval:,.0f} req/s repeated,"
                     f" {repeats / (repeats + computed):.1%} of plain reads"
                     f" ({repeats:,} hits / {computed:,} misses),"
                     f" {kept:,.0f} bytes kept")

    lag = _histogram(sample, "serve.pool.lag_seconds")
    if lag and lag.get("count"):
        lines.append(f"replica lag: p50 {_ms(lag.get('p50'))}"
                     f" p99 {_ms(lag.get('p99'))}"
                     f" max {_ms(lag.get('max'))}")

    pause = _gauge_last(sample, "serve.publish_pause_seconds")
    if pause is not None:
        pause_hist = _histogram(sample, "serve.publish_pause")
        worst = pause_hist.get("max") if pause_hist else None
        lines.append(f"publish pause: last {_ms(pause)}"
                     f" worst {_ms(worst)}")

    folds = sample.get("counters", {}).get("serve.folds", 0)
    if folds:
        fold_hist = _histogram(sample, "serve.fold_seconds")
        worst = fold_hist.get("max") if fold_hist else None
        lines.append(f"overlay folds: {folds:,} worst {_ms(worst)}")

    depth = _gauge_last(sample, "serve.queue_depth")
    if depth is not None:
        lines.append(f"write queue depth: {depth:.0f}")

    slow = _counter_delta(sample, previous, "serve.slow_queries")
    if slow:
        lines.append(f"slow queries this window: {slow:,}")

    replans = sample.get("counters", {}).get("exec.replans", 0)
    plans = sample.get("counters", {}).get("exec.plans", 0)
    if plans:
        lines.append(f"plans executed: {plans:,}"
                     f" ({replans:,} mid-flight replans)")
    return "\n".join(lines)
