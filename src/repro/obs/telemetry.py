"""The telemetry spine: one registry, one switch, one span stack per thread.

Every layer (store, closure engines, query engines, browsers, the
serving stack) reports into the single active :class:`Telemetry`
object.  Hot paths guard each instrumentation site with one
module-attribute lookup and make **one call per event**::

    from ..obs import telemetry as _obs
    ...
    if _obs.ENABLED:
        _obs.TELEMETRY.count("store.adds")

so that with telemetry off (the default) the cost per site is a single
attribute load and a falsy branch — no method call, no allocation.

Four kinds of signal are collected:

* **counters** — monotone event counts (``store.adds``,
  ``serve.requests``);
* **gauges** — last-value observations *with* a running
  min/max/sum/count envelope (:class:`GaugeAggregate`), so a scrape
  sees the extremes between scrapes, not just whatever came last;
* **histograms** — fixed-bucket streaming distributions
  (``serve.request_seconds.query``): p50/p95/p99 come from bucket
  counts, no samples are stored, and two histograms merge by adding
  counts — which is what lets replica worker processes ship their
  registries to the primary (:func:`merge_snapshots`);
* **spans** — named, nested wall/CPU timings with free-form attributes
  (``closure.dispatched`` > ``closure.round`` > …), plus per-conjunct
  (estimated cost, actual rows) records, the raw material of
  ``EXPLAIN ANALYZE``.

The registry is thread-safe — serving reads happen on many threads at
once — with one lock around every update (the enabled path only; the
disabled path never reaches it).  The open-span stack is *per thread*:
a reader thread's ``query.evaluate`` can never nest under the writer
thread's ``serve.batch``.

:data:`LAST_REQUEST` is the spine's per-thread "last request" record
(the last :class:`~repro.query.exec.PlanRun` and probe autopsy), kept
while telemetry is on; the slow-query log reads it.

The cyclic collector is a layer too: while the switch is on, a
``gc.callbacks`` hook counts its passes per generation
(``gc.collections.gen<N>``) and times each one (``gc.pause_us``).
:func:`enable_telemetry` and :func:`use_telemetry` install it and
turning the switch off removes it.

Example::

    from repro.obs import telemetry

    with telemetry.use_telemetry(telemetry.Telemetry()) as t:
        t.count("requests")
        t.observe("request_seconds", 0.004)
    assert t.snapshot()["counters"]["requests"] == 1
"""

from __future__ import annotations

import gc
import re
import threading
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Deque, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

#: Fast-path flag.  Instrumented call sites test this and nothing else.
ENABLED = False

#: Default histogram bounds (seconds): 50µs → 10s, roughly ×2.5 per
#: bucket.  Wide enough for µs point reads and multi-second closures;
#: values above the last bound land in the implicit +Inf bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Root spans kept per registry; older trees fall off, so a service
#: that holds the spine enabled for days stays bounded.
MAX_ROOT_SPANS = 4096

#: ``gc.pause_us`` bounds (microseconds): a young pass over a few
#: hundred objects takes tens of µs, a full pass over a served heap
#: tens to hundreds of ms.
GC_PAUSE_BUCKETS_US: Tuple[float, ...] = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3,
    1e4, 2.5e4, 5e4, 1e5, 2.5e5, 1e6,
)


class GaugeAggregate:
    """A last-value observation plus its running envelope
    (``last``/``min``/``max``/``sum``/``count``).  Not locked itself:
    the owning :class:`Telemetry` serialises updates."""

    __slots__ = ("last", "min", "max", "sum", "count")

    def __init__(self) -> None:
        self.last = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.sum = 0.0
        self.count = 0

    def set(self, value: float) -> None:
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        if not self.count:
            return {"last": 0.0, "min": 0.0, "max": 0.0,
                    "sum": 0.0, "count": 0}
        return {"last": self.last, "min": self.min, "max": self.max,
                "sum": self.sum, "count": self.count}


class Histogram:
    """A fixed-bucket streaming distribution.

    ``bounds`` are the inclusive upper edges of each bucket; one extra
    overflow bucket catches everything above the last bound.  Only the
    per-bucket counts (plus sum/count/min/max) are stored, so memory is
    constant however many observations arrive, percentiles are
    estimated from the cumulative counts, and two histograms with the
    same bounds merge by adding counts element-wise.  Not locked
    itself: the owning :class:`Telemetry` serialises updates.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, fraction: float) -> float:
        """Estimate the ``fraction`` quantile from the bucket counts.

        Linear interpolation inside the bucket that crosses the rank;
        the overflow bucket reports the observed maximum (the upper
        edge would be +Inf).
        """
        if not self.count:
            return 0.0
        rank = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return self.max
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                fill = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fill))
        return self.max

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


@dataclass
class Span:
    """One timed region: name, wall/CPU duration, attributes, children,
    and the thread that opened it (a span's children always share it)."""

    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    parent: Optional["Span"] = None
    children: List["Span"] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    finished: bool = False
    thread: int = field(default_factory=threading.get_ident)

    def set(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)

    @property
    def depth(self) -> int:
        depth, span = 0, self
        while span.parent is not None:
            depth, span = depth + 1, span.parent
        return depth

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class ConjunctStats:
    """Aggregated plan-vs-actual numbers for one conjunct.

    ``evals`` counts how many times the evaluator selected the conjunct
    (once per enclosing binding under dynamic re-planning); ``rows`` the
    total bindings it produced; ``estimate_total`` the sum of the
    planner's :func:`~repro.query.planner.estimate_cost` at each
    selection, so ``estimate_mean`` is directly comparable to
    ``rows / evals``.
    """

    evals: int = 0
    rows: int = 0
    estimate_total: float = 0.0

    @property
    def estimate_mean(self) -> float:
        return self.estimate_total / self.evals if self.evals else 0.0

    @property
    def rows_mean(self) -> float:
        return self.rows / self.evals if self.evals else 0.0


class _OpenSpans(threading.local):
    """The calling thread's stack of open spans."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class Telemetry:
    """All of a process's counters, gauges, histograms, spans and
    conjunct records, keyed by dotted name."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open = _OpenSpans()
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, GaugeAggregate] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.roots: Deque[Span] = deque(maxlen=MAX_ROOT_SPANS)
        self.conjuncts: Dict[str, ConjunctStats] = {}
        # (generation, pause µs) per collector pass, queued by
        # record_collection and folded in by _drain_collections.
        self._collections: Deque[Tuple[int, float]] = deque()

    # ------------------------------------------------------------------
    # Update paths
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment a monotone counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record a gauge observation (last + min/max/sum/count)."""
        with self._lock:
            gauge = self.gauges.get(name)
            if gauge is None:
                gauge = self.gauges[name] = GaugeAggregate()
            gauge.set(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        """Add one observation to a fixed-bucket histogram."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(bounds)
            histogram.observe(value)

    def record_conjunct(self, key: str, estimate: float, rows: int) -> None:
        """Aggregate one conjunct evaluation (planner estimate at
        selection time vs actual rows produced)."""
        with self._lock:
            stats = self.conjuncts.get(key)
            if stats is None:
                stats = self.conjuncts[key] = ConjunctStats()
            stats.evals += 1
            stats.rows += rows
            stats.estimate_total += estimate

    def record_collection(self, generation: int, pause_us: float) -> None:
        """One pass of the cyclic collector, as ``gc.collections.gen<N>``
        and ``gc.pause_us``.

        The collector runs inside whatever allocation triggered it —
        possibly one this registry makes under its own lock — so the
        pass is queued first and folded in only if the lock is free
        (otherwise by the next call here or the next :meth:`snapshot`).
        """
        self._collections.append((generation, pause_us))
        if self._lock.acquire(blocking=False):
            self._lock.release()
            self._drain_collections()

    def _drain_collections(self) -> None:
        while True:
            try:
                generation, pause_us = self._collections.popleft()
            except IndexError:
                return
            self.count(f"gc.collections.gen{generation}")
            self.observe("gc.pause_us", pause_us, GC_PAUSE_BUCKETS_US)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """A timed region.  Nested spans attach to the innermost span
        open *on this thread*; the yielded :class:`Span` accepts extra
        attributes via :meth:`Span.set`."""
        stack = self._open.stack
        span = Span(name=name, attributes=dict(attributes),
                    parent=stack[-1] if stack else None)
        if span.parent is not None:
            span.parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        try:
            yield span
        finally:
            span.wall = time.perf_counter() - start_wall
            span.cpu = time.process_time() - start_cpu
            span.finished = True
            stack.pop()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        """All recorded spans (preorder), optionally filtered by name."""
        with self._lock:
            roots = list(self.roots)
        return [span for root in roots for span in root.walk()
                if name is None or span.name == name]

    def snapshot(self) -> Dict[str, Any]:
        """Counters, gauges and histograms as one JSON-able document.

        The wire format for everything downstream: worker heartbeats,
        the ``metrics`` protocol verb, Prometheus exposition, and the
        metrics block benchmarks stamp into ``BENCH_*.json``.
        """
        self._drain_collections()
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": {name: gauge.as_dict() for name, gauge
                           in sorted(self.gauges.items())},
                "histograms": {name: histogram.as_dict()
                               for name, histogram
                               in sorted(self.histograms.items())},
            }


class _NullSpan:
    """The do-nothing span: context manager and attribute sink."""

    __slots__ = ()
    name = ""
    wall = 0.0
    cpu = 0.0
    finished = False
    attributes: Dict[str, Any] = {}
    children: List["Span"] = []
    parent = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attributes: Any) -> None:
        pass

    def walk(self):
        """Null-object protocol: a span's walk, of nothing (kept
        unreached so a held span never needs a type check)."""
        return iter(())


#: The shared no-op span; ``TELEMETRY.span(...)`` returns it when
#: telemetry is off, so code holding a span reference never needs a
#: None check.
NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled spine: every operation is a no-op, every read is
    empty.  A single module-level instance (:data:`NULL_TELEMETRY`)
    backs :data:`TELEMETRY` until telemetry is first enabled."""

    enabled = False

    counters: Dict[str, int] = {}
    gauges: Dict[str, GaugeAggregate] = {}
    histograms: Dict[str, Histogram] = {}
    roots: Sequence[Span] = ()
    conjuncts: Dict[str, ConjunctStats] = {}

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, bounds=None) -> None:
        pass

    def record_conjunct(self, key: str, estimate: float, rows: int) -> None:
        pass

    def record_collection(self, generation: int, pause_us: float) -> None:
        """Null-object protocol: the spine's collector hook, a no-op
        (kept unreached so the disabled spine answers every call)."""

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_TELEMETRY = NullTelemetry()

#: The active spine.  :data:`NULL_TELEMETRY` until
#: :func:`enable_telemetry`.
TELEMETRY = NULL_TELEMETRY


class _LastRequest(threading.local):
    """The calling thread's most recent :class:`~repro.query.exec.PlanRun`
    and probe autopsy (query, waves, candidates, seconds), recorded only while telemetry is enabled — how the serve
    path reaches est-vs-actual operator stats for the slow-query log
    without threading them through every return value."""

    run: Any = None
    probe: Optional[Dict[str, Any]] = None

    def clear(self) -> None:
        """Forget the previous request (so its plan is not attributed
        to the next one)."""
        self.run = self.probe = None


LAST_REQUEST = _LastRequest()


_collection_started = 0.0
_hook_lock = threading.Lock()


def _collector_hook(phase: str, info: Dict[str, int]) -> None:
    """The ``gc.callbacks`` entry while telemetry is on: each pass of
    the cyclic collector, timed, into the active spine."""
    global _collection_started
    if phase == "start":
        _collection_started = time.perf_counter()
    elif ENABLED:
        TELEMETRY.record_collection(
            info["generation"],
            (time.perf_counter() - _collection_started) * 1e6)


def _sync_collector_hook() -> None:
    """Install the collector hook while telemetry is on and remove it
    while off, so a process without telemetry pays nothing per pass."""
    with _hook_lock:
        installed = _collector_hook in gc.callbacks
        if ENABLED and not installed:
            gc.callbacks.append(_collector_hook)
        elif not ENABLED and installed:
            gc.callbacks.remove(_collector_hook)


def enable_telemetry(fresh: bool = False) -> Telemetry:
    """Turn telemetry on, installing (and returning) the process
    spine.  Re-enabling keeps previously collected data unless
    ``fresh`` is true.  Idempotent."""
    global TELEMETRY, ENABLED
    if fresh or not isinstance(TELEMETRY, Telemetry):
        TELEMETRY = Telemetry()
    ENABLED = True
    _sync_collector_hook()
    return TELEMETRY


def disable_telemetry() -> None:
    """Turn telemetry off.  Collected data stays readable on
    :func:`active_telemetry` until the next
    ``enable_telemetry(fresh=True)``."""
    global ENABLED
    ENABLED = False
    _sync_collector_hook()


def telemetry_enabled() -> bool:
    return ENABLED


def active_telemetry():
    """The spine that collected the most recent data (the null object
    if telemetry was never enabled)."""
    return TELEMETRY


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Temporarily install ``telemetry`` as the active spine (enabled),
    restoring the previous spine and enablement state on exit.  This is
    how ``explain_analyze``, the shell's ``profile`` command, and the
    benchmark harness observe one operation without perturbing global
    state."""
    global TELEMETRY, ENABLED
    saved = TELEMETRY, ENABLED
    TELEMETRY, ENABLED = telemetry, True
    _sync_collector_hook()
    try:
        yield telemetry
    finally:
        TELEMETRY, ENABLED = saved
        _sync_collector_hook()


def pattern_shape(pattern) -> str:
    """The bound-position signature of a template: which of source /
    relationship / target are ground (``"sr"``, ``"t"``, …; ``"open"``
    for the fully free template).  Used to key per-pattern counters so
    index-usage profiles stay low-cardinality."""
    shape = "".join(
        letter for letter, component in zip("srt", pattern)
        if isinstance(component, str))
    return shape or "open"


# ----------------------------------------------------------------------
# Snapshot algebra (cross-process aggregation)
# ----------------------------------------------------------------------
def _merge_gauge(into: Dict[str, float], other: Dict[str, float]) -> None:
    if not other.get("count"):
        return
    if not into.get("count"):
        into.update(other)
        return
    into["last"] = other["last"]
    into["min"] = min(into["min"], other["min"])
    into["max"] = max(into["max"], other["max"])
    into["sum"] = into["sum"] + other["sum"]
    into["count"] = into["count"] + other["count"]


def _copy_histogram(into: Dict[str, Any], other: Dict[str, Any]) -> None:
    into.update({key: (list(value) if isinstance(value, list) else value)
                 for key, value in other.items()})


def _merge_histogram(into: Dict[str, Any], other: Dict[str, Any]) -> None:
    if not other.get("count"):
        return
    if not into.get("count"):
        _copy_histogram(into, other)
        return
    if list(into["bounds"]) != list(other["bounds"]):
        # Different bucket layouts cannot be added bin-wise; keep the
        # side with more observations rather than fabricating counts.
        if other["count"] > into["count"]:
            _copy_histogram(into, other)
        return
    rebuilt = Histogram(into["bounds"])
    rebuilt.counts = [a + b for a, b in zip(into["counts"],
                                            other["counts"])]
    rebuilt.sum = into["sum"] + other["sum"]
    rebuilt.count = into["count"] + other["count"]
    rebuilt.min = min(into["min"], other["min"])
    rebuilt.max = max(into["max"], other["max"])
    into.update(rebuilt.as_dict())


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold several registry snapshots into one pool-wide view.

    Counters add; gauges combine min/max and add sum/count (``last``
    is the last snapshot's last); histograms with identical bounds add
    counts element-wise and re-derive their percentiles.  The inputs
    are not modified.
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {},
                              "histograms": {}}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = (
                merged["counters"].get(name, 0) + value)
        for name, gauge in snapshot.get("gauges", {}).items():
            into = merged["gauges"].setdefault(name, {"count": 0})
            _merge_gauge(into, gauge)
        for name, histogram in snapshot.get("histograms", {}).items():
            into = merged["histograms"].setdefault(name, {"count": 0})
            _merge_histogram(into, histogram)
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    return merged


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(prefix: str, name: str) -> str:
    flat = _PROM_NAME_RE.sub("_", name)
    return f"{prefix}_{flat}" if prefix else flat


def _prom_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(snapshot: Dict[str, Any], prefix: str = "repro") -> str:
    """Render a registry snapshot in the Prometheus text exposition
    format (version 0.0.4: ``# TYPE`` lines, ``_total`` counters,
    histogram ``_bucket{le=...}`` series).

    ``snapshot`` is anything :meth:`Telemetry.snapshot` or
    :func:`merge_snapshots` produced.
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(prefix, name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, gauge in snapshot.get("gauges", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_number(gauge.get('last', 0.0))}")
        for part in ("min", "max"):
            lines.append(f"# TYPE {metric}_{part} gauge")
            lines.append(
                f"{metric}_{part} {_prom_number(gauge.get(part, 0.0))}")
    for name, histogram in snapshot.get("histograms", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        bounds = list(histogram.get("bounds", ())) + [float("inf")]
        for bound, count in zip(bounds, histogram.get("counts", ())):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_prom_number(bound)}"}}'
                f" {cumulative}")
        lines.append(f"{metric}_sum {_prom_number(histogram.get('sum', 0.0))}")
        lines.append(f"{metric}_count {histogram.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{series: value}`` (labels kept
    verbatim in the series name).  Used by the smoke checks and tests
    to assert the exporter emits well-formed output."""
    series: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"malformed exposition line: {line!r}")
        series[name] = float(value)
    return series
