"""Distributed request tracing: context propagation, span stitching,
and the end-to-end acceptance path — one traced request through a TCP
server backed by a replica pool yields one tree spanning processes."""

from __future__ import annotations

import os

import pytest

from repro.core.errors import ParseError, ServiceError
from repro.db import Database
from repro.obs.context import (
    SpanRecord,
    TraceContext,
    render_trace,
    stitch,
    trace_processes,
)
from repro.serve import DatabaseService, ReplicaPool
from repro.serve.net import ServiceClient, ServiceServer

from .conftest import primary_busy


# ----------------------------------------------------------------------
# Context unit behavior
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_span_records_nest(self):
        ctx = TraceContext.new()
        with ctx.span("outer", role="client") as outer:
            with ctx.span("inner", role="client"):
                pass
        records = ctx.collect()
        assert len(records) == 2
        inner = next(r for r in records if r["name"] == "inner")
        assert inner["parent_id"] == outer.span_id
        assert all(r["trace_id"] == ctx.trace_id for r in records)

    def test_span_captures_errors(self):
        ctx = TraceContext.new()
        with pytest.raises(ValueError):
            with ctx.span("fails"):
                raise ValueError("boom")
        record = ctx.collect()[0]
        assert "ValueError" in record["error"]

    def test_wire_round_trip(self):
        parent = TraceContext.new()
        with parent.span("parent"):
            wire = parent.wire()
        child = TraceContext.from_wire(wire)
        assert child is not None
        assert child.trace_id == parent.trace_id
        with child.span("remote", role="replica"):
            pass
        parent.absorb(child.collect())
        roots = stitch(parent.collect())
        assert len(roots) == 1
        assert roots[0]["children"][0]["span"]["name"] == "remote"

    def test_from_wire_rejects_absent(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({}) is None

    def test_stitch_orphans_become_roots(self):
        record = SpanRecord(trace_id="t", span_id="s",
                            parent_id="missing", name="lonely",
                            role="x", pid=1, start=0.0, wall=0.1)
        roots = stitch([record.as_dict()])
        assert len(roots) == 1
        assert roots[0]["span"]["name"] == "lonely"

    def test_trace_processes_distinct(self):
        records = [
            SpanRecord(trace_id="t", span_id=str(index), parent_id=None,
                       name="n", role="r", pid=pid, start=0.0,
                       wall=0.0).as_dict()
            for index, pid in enumerate([10, 10, 20])]
        assert sorted(trace_processes(records)) == [10, 20]

    def test_render_trace_shows_tree(self):
        ctx = TraceContext.new()
        with ctx.span("request", role="client"):
            with ctx.span("dispatch", role="server"):
                pass
        text = render_trace(ctx.collect())
        assert "request" in text and "dispatch" in text
        # The child is indented under the root.
        request_line, dispatch_line = [
            line for line in text.splitlines()
            if "request" in line or "dispatch" in line]
        indent = len(dispatch_line) - len(dispatch_line.lstrip())
        assert indent > len(request_line) - len(request_line.lstrip())


# ----------------------------------------------------------------------
# End-to-end: the acceptance trace
# ----------------------------------------------------------------------
def _build_database() -> Database:
    db = Database()
    for index in range(4):
        db.add(f"P{index}", "WORKS-IN", f"D{index % 2}")
        db.add(f"D{index % 2}", "PART-OF", "ORG")
    return db


@pytest.fixture()
def pooled():
    """TCP server backed by a 2-worker replica pool."""
    service = DatabaseService(_build_database())
    pool = ReplicaPool(service, workers=2)
    server = ServiceServer(service, port=0, pool=pool)
    server.start()
    try:
        yield server
    finally:
        server.close()
        pool.close()
        service.close()


@pytest.fixture()
def pooled_server(pooled):
    return pooled.address


class TestDistributedTrace:
    def test_probe_through_pool_stitches_multi_process_tree(
            self, pooled, pooled_server):
        host, port = pooled_server
        with ServiceClient(host, port, trace=True) as client, \
                primary_busy(pooled.pool):
            outcome = client.probe("(x, PART-OF, ORG)")
            assert outcome["succeeded"]
            spans = client.last_trace

        # One request → one stitched tree with at least four spans
        # (client, server dispatch, pool routing, replica evaluation)
        # spanning at least two OS processes.
        assert len(spans) >= 4
        roots = stitch(spans)
        assert len(roots) == 1
        processes = trace_processes(spans)
        assert len(processes) >= 2
        assert os.getpid() in processes
        roles = {span["role"] for span in spans}
        assert {"client", "server", "pool", "replica"} <= roles
        # Every span belongs to the same trace.
        assert len({span["trace_id"] for span in spans}) == 1

    def test_traced_write_covers_writer_thread(self, pooled_server):
        host, port = pooled_server
        with ServiceClient(host, port, trace=True) as client:
            assert client.add("NEW", "WORKS-IN", "D0")
            spans = client.last_trace
        roles = {span["role"] for span in spans}
        assert "writer" in roles
        writer = next(s for s in spans if s["role"] == "writer")
        assert writer["attributes"]["op"] == "add"

    def test_failed_requests_still_ship_their_trace(self, pooled_server):
        host, port = pooled_server
        with ServiceClient(host, port, trace=True) as client:
            # A malformed request (no "query" key) and a typed error
            # both carry the server's dispatch span back.
            with pytest.raises(ServiceError, match="bad request"):
                client._call("query")
            bad_request = client.last_trace
            with pytest.raises(ParseError):
                client.query("(x, BOGUS")
            typed_error = client.last_trace
        for spans in (bad_request, typed_error):
            assert {"client", "server"} <= {s["role"] for s in spans}
            assert len(stitch(spans)) == 1
            dispatch = next(s for s in spans if s["name"] == "net.dispatch")
            assert dispatch["error"]

    def test_untraced_requests_carry_no_trace(self, pooled_server):
        host, port = pooled_server
        with ServiceClient(host, port) as client:
            assert client.query("(x, WORKS-IN, y)")
            assert client.last_trace == []

    def test_trace_toggle_is_per_client(self, pooled_server):
        host, port = pooled_server
        with ServiceClient(host, port, trace=True) as traced, \
                ServiceClient(host, port) as plain:
            traced.query("(x, WORKS-IN, y)")
            plain.query("(x, WORKS-IN, y)")
            assert traced.last_trace
            assert plain.last_trace == []

    def test_primary_served_read_stays_in_one_process(self, pooled_server):
        """A lone read through the pool is the primary's: the tree is
        client → server → pool → service, all in this process."""
        host, port = pooled_server
        with ServiceClient(host, port, trace=True) as client:
            client.query("(x, WORKS-IN, y)")
            spans = client.last_trace
        assert len(stitch(spans)) == 1
        assert trace_processes(spans) == [os.getpid()]
        assert {"client", "server", "pool", "service"} \
            <= {span["role"] for span in spans}

    def test_render_last_trace(self, pooled, pooled_server):
        host, port = pooled_server
        with ServiceClient(host, port, trace=True) as client, \
                primary_busy(pooled.pool):
            client.query("(x, WORKS-IN, y)")
            text = client.render_last_trace()
        assert "client.request" in text
        assert "replica.read" in text
