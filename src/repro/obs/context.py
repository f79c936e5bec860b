"""Distributed trace context: one request, one span tree, many processes.

The in-process spine nests spans on a stack, which stops working the
moment a request crosses a socket or a pipe.  This module carries a
*trace context* — a trace id plus the span id of the caller — across
those boundaries, and lets each participant contribute flat
:class:`SpanRecord` rows that are later stitched back into a tree.

The transport model is **response-carried**: there is no central
collector.  A replica worker returns its span records inside the read
result; the pool appends its routing span and hands the pile to the
service layer; the TCP server attaches everything to the response's
``trace`` field; the client merges that into its own context.  After
one round trip the *client* holds the complete tree — client span,
server dispatch span, service/pool spans, and the worker's spans from
another process — with no side channel to configure.

Usage, client side::

    ctx = TraceContext.new()
    with ctx.span("client.request", role="client"):
        response = send(request, trace=ctx.wire())
    ctx.absorb(response.get("trace", ()))
    tree = stitch(ctx.records)

and on any server hop::

    ctx = TraceContext.from_wire(request.get("trace"))
    with ctx.span("service.read", role="service", op="probe"):
        ...
    response["trace"] = ctx.collect()

``TraceContext.from_wire(None)`` returns ``None``, and every
instrumented site treats a ``None`` context as "tracing off", so
untraced requests pay a single identity check per hop.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh span/trace id (for callers assembling
    :class:`SpanRecord` rows by hand, e.g. the writer thread)."""
    return _new_id()


@dataclass
class SpanRecord:
    """One flat span row — JSON-able, orderable, process-tagged."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    role: str = ""
    pid: int = 0
    start: float = 0.0
    wall: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "role": self.role,
            "pid": self.pid,
            "start": self.start,
            "wall": self.wall,
        }
        if self.attributes:
            record["attributes"] = self.attributes
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=data.get("trace_id", ""),
            span_id=data.get("span_id", ""),
            parent_id=data.get("parent_id"),
            name=data.get("name", ""),
            role=data.get("role", ""),
            pid=data.get("pid", 0),
            start=data.get("start", 0.0),
            wall=data.get("wall", 0.0),
            attributes=dict(data.get("attributes", {})),
            error=data.get("error"),
        )


class TraceContext:
    """A request's identity plus the spans this process contributed.

    ``parent_id`` names the span on the *calling* side under which new
    spans here should hang; :meth:`span` updates it for the duration of
    the body so sibling calls nest naturally within one process.
    Collection is additive and thread-safe: worker receiver threads and
    the writer thread may append concurrently.
    """

    __slots__ = ("trace_id", "parent_id", "records", "_lock")

    def __init__(self, trace_id: str, parent_id: Optional[str] = None,
                 records: Optional[List[SpanRecord]] = None) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.records: List[SpanRecord] = records if records is not None else []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction / wire format
    # ------------------------------------------------------------------
    @classmethod
    def new(cls) -> "TraceContext":
        return cls(trace_id=_new_id())

    @classmethod
    def from_wire(cls, wire: Optional[Dict[str, Any]]
                  ) -> Optional["TraceContext"]:
        """Rebuild a context from a request's ``trace`` field.

        ``None`` (field absent → request untraced) maps to ``None`` so
        call sites can use the context's truthiness as the fast path.
        """
        if not wire or not wire.get("id"):
            return None
        return cls(trace_id=str(wire["id"]),
                   parent_id=wire.get("parent") or None)

    def wire(self) -> Dict[str, Any]:
        """The compact form that rides in a request: id + parent only
        (records travel in *responses*, not requests)."""
        payload: Dict[str, Any] = {"id": self.trace_id}
        if self.parent_id:
            payload["parent"] = self.parent_id
        return payload

    def child(self) -> "TraceContext":
        """A context for handing to a downstream hop: same trace, same
        parent, its own record pile (merged back via :meth:`absorb`)."""
        return TraceContext(self.trace_id, self.parent_id)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, role: str = "", **attributes: Any):
        """Record a span around the body.

        Yields the :class:`SpanRecord` so the body can add attributes
        discovered mid-flight (row counts, worker slot, ...).  While
        the body runs, new spans started through *this context* hang
        under this span.
        """
        record = SpanRecord(
            trace_id=self.trace_id,
            span_id=_new_id(),
            parent_id=self.parent_id,
            name=name,
            role=role,
            pid=os.getpid(),
            start=time.time(),
            attributes=dict(attributes),
        )
        saved_parent = self.parent_id
        self.parent_id = record.span_id
        started = time.perf_counter()
        try:
            yield record
        except BaseException as error:
            record.error = f"{type(error).__name__}: {error}"
            raise
        finally:
            record.wall = time.perf_counter() - started
            self.parent_id = saved_parent
            with self._lock:
                self.records.append(record)

    def add_record(self, record: SpanRecord) -> None:
        with self._lock:
            self.records.append(record)

    def absorb(self, wire_records: Iterable[Dict[str, Any]]) -> None:
        """Merge span dicts from a response (another hop's
        :meth:`collect`) into this context."""
        if not wire_records:
            return
        parsed = [SpanRecord.from_dict(record) for record in wire_records]
        with self._lock:
            self.records.extend(parsed)

    def collect(self) -> List[Dict[str, Any]]:
        """This process's records as wire dicts (for a response's
        ``trace`` field)."""
        with self._lock:
            return [record.as_dict() for record in self.records]


# ----------------------------------------------------------------------
# Stitching and rendering
# ----------------------------------------------------------------------
def stitch(records: Sequence[Any]) -> List[Dict[str, Any]]:
    """Assemble flat span records (dicts or :class:`SpanRecord`) into
    a forest of ``{"span": record_dict, "children": [...]}`` nodes,
    roots first, children ordered by start time.

    Spans whose parent never arrived (a hop that dropped its records)
    surface as extra roots rather than vanishing.
    """
    as_dicts: List[Dict[str, Any]] = []
    for record in records:
        as_dicts.append(record.as_dict()
                        if isinstance(record, SpanRecord) else dict(record))
    nodes = {record["span_id"]: {"span": record, "children": []}
             for record in as_dicts}
    roots: List[Dict[str, Any]] = []
    for record in as_dicts:
        parent = record.get("parent_id")
        if parent and parent in nodes and parent != record["span_id"]:
            nodes[parent]["children"].append(nodes[record["span_id"]])
        else:
            roots.append(nodes[record["span_id"]])

    def _sort(node: Dict[str, Any]) -> None:
        node["children"].sort(key=lambda child: child["span"]["start"])
        for child in node["children"]:
            _sort(child)

    roots.sort(key=lambda node: node["span"]["start"])
    for root in roots:
        _sort(root)
    return roots


def trace_processes(records: Sequence[Any]) -> List[int]:
    """Distinct pids that contributed spans, in first-seen order."""
    seen: List[int] = []
    for record in records:
        pid = (record.pid if isinstance(record, SpanRecord)
               else record.get("pid", 0))
        if pid and pid not in seen:
            seen.append(pid)
    return seen


def render_trace(records: Sequence[Any]) -> str:
    """A human-readable tree of a stitched trace::

        client.request                    client  pid=101   3.214ms
          net.dispatch probe              server  pid=202   2.801ms
            pool.read worker=1            pool    pid=202   2.455ms
              replica.read probe          replica pid=303   0.412ms
    """
    lines: List[str] = []

    def _walk(node: Dict[str, Any], depth: int) -> None:
        span = node["span"]
        label = span["name"]
        attributes = span.get("attributes") or {}
        if attributes:
            detail = " ".join(f"{key}={value}"
                              for key, value in sorted(attributes.items()))
            label = f"{label} [{detail}]"
        indent = "  " * depth
        text = f"{indent}{label}"
        lines.append(f"{text:<56} {span.get('role', ''):<8}"
                     f" pid={span.get('pid', 0):<8}"
                     f" {span.get('wall', 0.0) * 1000:8.3f}ms"
                     + (f"  ERROR {span['error']}"
                        if span.get("error") else ""))
        for child in node["children"]:
            _walk(child, depth + 1)

    for root in stitch(records):
        _walk(root, 0)
    return "\n".join(lines)
