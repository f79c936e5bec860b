"""JSON-lines TCP access to a :class:`~repro.serve.DatabaseService`.

Protocol
--------

One request per line, one response per line, both JSON objects
(stdlib only — no new dependencies)::

    -> {"op": "query", "query": "(x, ∈, COMPOSER)", "deadline": 2.0}
    <- {"ok": true, "result": [["BRAHMS"], ["MAHLER"]]}

    -> {"op": "add", "fact": ["ELGAR", "∈", "COMPOSER"]}
    <- {"ok": true, "result": true}

    -> {"op": "query", "query": "(x, BOGUS"}
    <- {"ok": false, "error": "ParseError", "message": "..."}

Errors travel as the exception's class name plus message; the client
re-raises the matching class from :mod:`repro.core.errors`, so remote
callers handle :class:`~repro.core.errors.Overloaded` and
:class:`~repro.core.errors.DeadlineExceeded` exactly like local ones.
Result sets are serialised as sorted lists of lists (JSON has no sets
or tuples); rendered operators (``navigate``, ``try``) ship their text.

Protocol version 3 adds distributed tracing and telemetry verbs, all
backward compatible (old clients simply omit the new fields):

* a request may carry ``"trace": {"id": ..., "parent": ...}``; the
  response then carries ``"trace": [span records]`` — every span this
  server (and, through the pool, its replica workers) contributed, for
  the client to stitch into one tree
  (:mod:`repro.obs.context`);
* ``{"op": "metrics"}`` returns the pool-wide merged metrics snapshot
  (``{"format": "prometheus"}`` for text exposition,
  ``{"refresh": true}`` to heartbeat the workers first);
* ``{"op": "slowlog"}`` returns the service's slow-query records.

Example (in-process round trip)::

    from repro import Database
    from repro.serve import DatabaseService
    from repro.serve.net import ServiceClient, ServiceServer

    service = DatabaseService(Database())
    server = ServiceServer(service, port=0)   # 0 = ephemeral port
    server.start()
    host, port = server.address
    with ServiceClient(host, port) as client:
        client.add("JOHN", "∈", "EMPLOYEE")
        assert client.ask("(JOHN, ∈, EMPLOYEE)")
    server.close()
    service.close()
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any, Dict, Optional, Tuple

from ..core.errors import ReproError, ServiceError, error_class
from ..obs import telemetry as _obs
from ..obs.context import TraceContext, render_trace

__all__ = ["ServiceServer", "ServiceClient", "RemoteShell",
           "PROTOCOL_VERSION"]

PROTOCOL_VERSION = 3

#: Longest request line the server reads.  A longer line is answered
#: with a ``ServiceError`` and the connection is closed (the rest of
#: the line cannot be skipped without reading it).
MAX_LINE_BYTES = 1 << 20

#: Read operations that a :class:`~repro.serve.pool.ReplicaPool` can
#: serve instead of the primary.  Everything else (writes, control
#: operations, service stats, checkpoint) stays on the service.
_POOL_READS = frozenset(
    {"query", "ask", "match", "navigate", "try", "probe", "db_stats"})


#: Request fields that must be JSON strings when present.
_STRING_FIELDS = ("query", "pattern", "entity", "rule", "name", "text")


def _check_fields(request: Dict[str, Any]) -> None:
    """Reject wrongly typed request fields before anything consumes
    them: past this point a ``null`` pattern or a numeric query would
    surface as an ``AttributeError`` deep in the parser (killing the
    handler thread), a string ``fact`` would be unpacked character by
    character, and a bad ``n`` would only fail inside the writer."""
    def bad(name: str, expected: str) -> ServiceError:
        return ServiceError(f"bad request: {name!r} must be {expected}")

    for name in _STRING_FIELDS:
        if name in request and not isinstance(request[name], str):
            raise bad(name, "a string")
    if "fact" in request:
        fact = request["fact"]
        if not isinstance(fact, list) or len(fact) != 3 \
                or not all(isinstance(part, str) for part in fact):
            raise bad("fact", "a list of three strings")
    # bool is an int subclass, but ``true`` is neither a limit nor a
    # number of seconds.
    n = request.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool)):
        raise bad("n", "an integer or null")
    deadline = request.get("deadline")
    if deadline is not None and (not isinstance(deadline, (int, float))
                                 or isinstance(deadline, bool)):
        raise bad("deadline", "a number or null")
    trace = request.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise bad("trace", "an object")


def _rows(result) -> list:
    """A set of tuples as a deterministic JSON value."""
    return sorted(list(row) for row in result)


def _facts(facts) -> list:
    return [list(f) for f in facts]


def _dispatch_pool(pool, op: str, request: Dict[str, Any],
                   deadline, min_version: int,
                   ctx: Optional[TraceContext] = None) -> Any:
    """Serve one of :data:`_POOL_READS` through the pool (the primary
    when it is idle, a replica otherwise).

    ``min_version`` is the connection's read-your-writes floor: the
    replication sequence its last acknowledged write landed in, so a
    client that wrote over this socket never reads a replica that has
    not caught up (the pool falls back to the primary if none has).
    """
    if op == "query":
        return _rows(pool.query(request["query"], deadline=deadline,
                                min_version=min_version, ctx=ctx))
    if op == "ask":
        return pool.ask(request["query"], deadline=deadline,
                        min_version=min_version, ctx=ctx)
    if op == "match":
        return _facts(pool.match(request["pattern"], deadline=deadline,
                                 min_version=min_version, ctx=ctx))
    if op == "navigate":
        return pool.navigate(request["pattern"], deadline=deadline,
                             min_version=min_version, ctx=ctx)
    if op == "try":
        return _facts(pool.try_(request["entity"], deadline=deadline,
                                min_version=min_version, ctx=ctx))
    if op == "probe":
        outcome = pool.probe(request["query"], deadline=deadline,
                             min_version=min_version, ctx=ctx)
        return {"succeeded": outcome["succeeded"],
                "value": _rows(outcome["value"]),
                "waves": outcome["waves"]}
    if op == "db_stats":
        return pool.database_stats(deadline=deadline,
                                   min_version=min_version, ctx=ctx)
    raise ServiceError(f"unknown pool operation {op!r}")


def _dispatch(service, request: Dict[str, Any], pool=None,
              state: Optional[Dict[str, Any]] = None,
              ctx: Optional[TraceContext] = None) -> Any:
    op = request.get("op")
    deadline = request.get("deadline")
    if pool is not None and op in _POOL_READS:
        floor = state.get("min_version", 0) if state else 0
        return _dispatch_pool(pool, op, request, deadline, floor, ctx)
    if op == "ping":
        info = service.ping()
        info["protocol"] = PROTOCOL_VERSION
        if pool is not None:
            info["workers"] = pool.workers
        return info
    if op == "metrics":
        if pool is not None:
            snapshot = pool.metrics(refresh=bool(request.get("refresh")))
        else:
            snapshot = _obs.active_telemetry().snapshot()
        if request.get("format") == "prometheus":
            return _obs.to_prometheus(snapshot)
        return snapshot
    if op == "slowlog":
        return service.slow_log.snapshot(request.get("limit"))
    if op == "query":
        return _rows(service.query(request["query"], deadline=deadline,
                                   ctx=ctx))
    if op == "ask":
        return service.ask(request["query"], deadline=deadline, ctx=ctx)
    if op == "match":
        return _facts(service.match(request["pattern"], deadline=deadline,
                                    ctx=ctx))
    if op == "navigate":
        return service.navigate(request["pattern"],
                                deadline=deadline, ctx=ctx).render()
    if op == "try":
        return _facts(service.try_(request["entity"], deadline=deadline,
                                   ctx=ctx))
    if op == "probe":
        outcome = service.probe(request["query"], deadline=deadline,
                                ctx=ctx)
        return {"succeeded": outcome.succeeded,
                "value": _rows(outcome.value),
                "waves": len(outcome.waves)}
    if op == "add":
        result = service.add(*request["fact"], deadline=deadline, ctx=ctx)
    elif op == "remove":
        result = service.remove(*request["fact"], deadline=deadline,
                                ctx=ctx)
    elif op == "limit":
        result = service.limit(request["n"], deadline=deadline, ctx=ctx)
    elif op == "include":
        service.include(request["rule"], deadline=deadline, ctx=ctx)
        result = True
    elif op == "exclude":
        service.exclude(request["rule"], deadline=deadline, ctx=ctx)
        result = True
    elif op == "rule":
        rule = service.define_rule(
            request["name"], request["text"],
            is_constraint=bool(request.get("is_constraint", False)),
            deadline=deadline, ctx=ctx)
        result = str(rule)
    elif op == "checkpoint":
        return service.checkpoint(deadline=deadline)
    elif op == "stats":
        stats = service.stats()
        if pool is not None:
            stats["pool"] = pool.stats()
        return stats
    elif op == "db_stats":
        return service.database_stats(deadline=deadline)
    else:
        raise ServiceError(f"unknown operation {op!r}")
    # A write (or control op) returned: this batch has published, so
    # raise the connection's read-your-writes floor to it.
    if state is not None:
        state["min_version"] = service.applied_seq
    return result


class ServiceServer:
    """A threading TCP server speaking the JSON-lines protocol.

    Each connection gets its own handler thread; reads are lock-free
    against the service's published snapshot, so connection threads
    scale without contending.  ``port=0`` binds an ephemeral port
    (read it back from :attr:`address`).

    With ``pool=`` (a :class:`~repro.serve.pool.ReplicaPool`), read
    operations go through the pool: the primary answers while it is
    idle and concurrent reads spill to replica worker *processes*.
    Writes still go through the service; each connection tracks the
    replication sequence of its last acknowledged write and reads with
    that floor, so read-your-writes holds per connection even though
    replicas lag the primary.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 7474,
                 pool=None):
        self.service = service
        self.pool = pool

        outer = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self):
                state: Dict[str, Any] = {"min_version": 0}
                while True:
                    raw = self.rfile.readline(MAX_LINE_BYTES + 1)
                    if not raw:
                        return
                    if len(raw) > MAX_LINE_BYTES:
                        self.send(outer._failure(ServiceError(
                            f"request line exceeds {MAX_LINE_BYTES}"
                            f" bytes; closing connection")))
                        return
                    line = raw.decode("utf-8", errors="replace").strip()
                    if line:
                        self.send(outer._respond(line, state))

            def send(self, response: Dict[str, Any]) -> None:
                self.wfile.write(
                    (json.dumps(response, ensure_ascii=False) + "\n")
                    .encode("utf-8"))
                self.wfile.flush()

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None

    def _respond(self, line: str,
                 state: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        ctx: Optional[TraceContext] = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServiceError("request must be a JSON object")
            _check_fields(request)
            ctx = TraceContext.from_wire(request.get("trace"))
            if ctx is None:
                result = _dispatch(self.service, request, self.pool, state)
            else:
                with ctx.span("net.dispatch", role="server",
                              op=request.get("op", "")):
                    result = _dispatch(self.service, request, self.pool,
                                       state, ctx)
        except ReproError as error:
            return self._failure(error, ctx)
        except (KeyError, TypeError, ValueError,
                json.JSONDecodeError) as error:
            return self._failure(
                ServiceError(f"bad request: {error!r}"), ctx)
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.net.requests")
        response = {"ok": True, "result": result}
        if ctx is not None:
            response["trace"] = ctx.collect()
        return response

    @staticmethod
    def _failure(error: ReproError,
                 ctx: Optional[TraceContext] = None) -> Dict[str, Any]:
        """The typed error response (class name + message), carrying
        the request's span records when it was traced."""
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.net.errors")
        response = {"ok": False, "error": type(error).__name__,
                    "message": str(error)}
        if ctx is not None:
            response["trace"] = ctx.collect()
        return response

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._server.server_address[:2]

    def start(self) -> None:
        """Serve on a background thread; returns immediately."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-serve-net",
            daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``serve`` shell mode)."""
        self._server.serve_forever()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServiceClient:
    """A blocking JSON-lines client for :class:`ServiceServer`.

    Remote errors re-raise as their local classes, so
    ``except Overloaded:`` works the same against a socket as against
    an in-process :class:`~repro.serve.DatabaseService`.

    With ``trace=True`` every call carries a fresh trace context and
    the stitched span records — client span, server dispatch, service
    or pool spans, replica-worker spans from other processes — land on
    :attr:`last_trace` (render with
    :func:`repro.obs.context.render_trace`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7474,
                 timeout: Optional[float] = 30.0, trace: bool = False):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._writer = self._sock.makefile("w", encoding="utf-8")
        self.trace = trace
        #: Span records of the most recent traced call (wire dicts).
        self.last_trace: list = []

    def _call(self, op: str, **fields) -> Any:
        request = {"op": op}
        request.update({k: v for k, v in fields.items() if v is not None})
        return self._call_raw(request)

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._writer.write(json.dumps(request, ensure_ascii=False) + "\n")
        self._writer.flush()
        line = self._reader.readline()
        if not line:
            raise ServiceError("server closed the connection")
        return json.loads(line)

    def _call_raw(self, request: Dict[str, Any]) -> Any:
        if not self.trace:
            response = self._roundtrip(request)
        else:
            ctx = TraceContext.new()
            with ctx.span("client.request", role="client",
                          op=request.get("op", "")):
                traced = dict(request)
                traced["trace"] = ctx.wire()
                response = self._roundtrip(traced)
            ctx.absorb(response.get("trace") or ())
            self.last_trace = ctx.collect()
        if response.get("ok"):
            return response.get("result")
        raise error_class(response.get("error", ""))(
            response.get("message", "remote error"))

    # -- mirrored API ---------------------------------------------------
    def ping(self) -> dict:
        return self._call("ping")

    def query(self, query: str, deadline: Optional[float] = None) -> list:
        return self._call("query", query=query, deadline=deadline)

    def ask(self, query: str, deadline: Optional[float] = None) -> bool:
        return self._call("ask", query=query, deadline=deadline)

    def match(self, pattern: str, deadline: Optional[float] = None) -> list:
        return self._call("match", pattern=pattern, deadline=deadline)

    def navigate(self, pattern: str,
                 deadline: Optional[float] = None) -> str:
        return self._call("navigate", pattern=pattern, deadline=deadline)

    def try_(self, entity: str, deadline: Optional[float] = None) -> list:
        return self._call("try", entity=entity, deadline=deadline)

    def probe(self, query: str, deadline: Optional[float] = None) -> dict:
        """Returns ``{"succeeded": bool, "value": rows, "waves": n}``."""
        return self._call("probe", query=query, deadline=deadline)

    def add(self, source: str, relationship: str, target: str,
            deadline: Optional[float] = None) -> bool:
        return self._call("add", fact=[source, relationship, target],
                          deadline=deadline)

    def remove(self, source: str, relationship: str, target: str,
               deadline: Optional[float] = None) -> bool:
        return self._call("remove", fact=[source, relationship, target],
                          deadline=deadline)

    def limit(self, n: Optional[int],
              deadline: Optional[float] = None):
        # n=None is meaningful (unlimited), so send it explicitly
        # instead of letting _call's None-filter drop it.
        request: Dict[str, Any] = {"op": "limit", "n": n}
        if deadline is not None:
            request["deadline"] = deadline
        return self._call_raw(request)

    def include(self, rule: str, deadline: Optional[float] = None) -> bool:
        return self._call("include", rule=rule, deadline=deadline)

    def exclude(self, rule: str, deadline: Optional[float] = None) -> bool:
        return self._call("exclude", rule=rule, deadline=deadline)

    def define_rule(self, name: str, text: str, *,
                    is_constraint: bool = False,
                    deadline: Optional[float] = None) -> str:
        return self._call("rule", name=name, text=text,
                          is_constraint=is_constraint or None,
                          deadline=deadline)

    def checkpoint(self, deadline: Optional[float] = None) -> bool:
        return self._call("checkpoint", deadline=deadline)

    def stats(self) -> dict:
        return self._call("stats")

    def database_stats(self, deadline: Optional[float] = None) -> dict:
        return self._call("db_stats", deadline=deadline)

    def metrics(self, format: Optional[str] = None,
                refresh: bool = False):
        """The server's (pool-wide, merged) metrics snapshot;
        ``format="prometheus"`` returns exposition text instead."""
        return self._call("metrics", format=format,
                          refresh=refresh or None)

    def slowlog(self, limit: Optional[int] = None) -> dict:
        """The server's slow-query log:
        ``{"total": n, "records": [...]}``."""
        return self._call("slowlog", limit=limit)

    def render_last_trace(self) -> str:
        """The most recent traced call's span tree as text."""
        return render_trace(self.last_trace)

    def close(self) -> None:
        try:
            self._reader.close()
            self._writer.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteShell:
    """A minimal interactive shell over a :class:`ServiceClient`.

    Speaks a subset of :class:`~repro.shell.BrowserShell`'s commands —
    the ones that round-trip cleanly over the wire.
    """

    PROMPT = "remote> "

    def __init__(self, client: ServiceClient):
        self.client = client

    def execute(self, line: str) -> str:
        line = line.strip()
        if not line:
            return ""
        if line.startswith("("):
            return self.client.navigate(line)
        parts = line.split(None, 1)
        command, rest = parts[0].lower(), (parts[1] if len(parts) > 1 else "")
        try:
            return self._run(command, rest)
        except ReproError as error:
            return f"error ({type(error).__name__}): {error}"

    def _run(self, command: str, rest: str) -> str:
        client = self.client
        if command in ("quit", "exit"):
            raise EOFError
        if command == "help":
            return ("commands: (template) | query Q | ask Q | try ENTITY |"
                    " probe Q | add S R T | remove S R T | limit N |"
                    " rule NAME TEXT | include NAME | exclude NAME |"
                    " stats | metrics | slowlog [N] | trace on|off|last |"
                    " checkpoint | ping | quit")
        if command == "ping":
            info = client.ping()
            return (f"ok: version {info['version']},"
                    f" {info['facts']} facts")
        if command == "query":
            rows = client.query(rest)
            if not rows:
                return "no results"
            return "\n".join("(" + ", ".join(row) + ")" for row in rows)
        if command == "ask":
            return "yes" if client.ask(rest) else "no"
        if command == "try":
            facts = client.try_(rest.strip())
            if not facts:
                return "no facts"
            return "\n".join(f"({s}, {r}, {t})" for s, r, t in facts)
        if command == "probe":
            outcome = client.probe(rest)
            status = "succeeded" if outcome["succeeded"] else "failed"
            lines = [f"{status} after {outcome['waves']} wave(s)"]
            lines += ["(" + ", ".join(row) + ")"
                      for row in outcome["value"]]
            return "\n".join(lines)
        if command == "add":
            source, relationship, target = rest.split()
            added = client.add(source, relationship, target)
            return "added" if added else "already present"
        if command == "remove":
            source, relationship, target = rest.split()
            removed = client.remove(source, relationship, target)
            return "removed" if removed else "not present"
        if command == "limit":
            value = None if rest.strip().lower() == "none" else int(rest)
            client.limit(value)
            return f"composition limit = {value}"
        if command == "rule":
            name, text = rest.split(None, 1)
            return "defined " + client.define_rule(name, text)
        if command == "include":
            client.include(rest.strip())
            return f"included {rest.strip()}"
        if command == "exclude":
            client.exclude(rest.strip())
            return f"excluded {rest.strip()}"
        if command == "checkpoint":
            client.checkpoint()
            return "checkpointed"
        if command == "stats":
            stats = client.stats()
            return "\n".join(f"{key}: {value}"
                             for key, value in sorted(stats.items()))
        if command == "metrics":
            if rest.strip() == "prometheus":
                return client.metrics(format="prometheus").rstrip()
            snapshot = client.metrics(refresh=True)
            lines = [f"{name}: {value}" for name, value
                     in sorted(snapshot.get("counters", {}).items())]
            for name, histogram in sorted(
                    snapshot.get("histograms", {}).items()):
                lines.append(
                    f"{name}: count={histogram['count']}"
                    f" p50={histogram['p50'] * 1000:.3f}ms"
                    f" p99={histogram['p99'] * 1000:.3f}ms")
            return "\n".join(lines) or "(no metrics collected)"
        if command == "slowlog":
            limit = int(rest) if rest.strip() else 10
            log = client.slowlog(limit=limit)
            if not log["records"]:
                return f"slow queries: {log['total']} total, none retained"
            lines = [f"slow queries: {log['total']} total"]
            for record in log["records"]:
                lines.append(
                    f"  [{record['source']}] {record['op']}"
                    f" {record.get('text', '')}"
                    f" {record['seconds'] * 1000:.1f}ms"
                    f" (threshold {record['threshold'] * 1000:.1f}ms)")
            return "\n".join(lines)
        if command == "trace":
            mode = rest.strip().lower()
            if mode == "last":
                if not client.last_trace:
                    return "no traced call yet (enable with 'trace on')"
                return client.render_last_trace().rstrip()
            if mode not in ("on", "off"):
                return "usage: trace on|off|last"
            client.trace = mode == "on"
            return f"per-request tracing {mode}"
        return f"unknown command: {command!r} (try 'help')"

    def run(self, stdin=None, stdout=None) -> None:
        import sys

        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        stdout.write("connected — 'help' lists commands, 'quit' leaves\n")
        while True:
            stdout.write(self.PROMPT)
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            try:
                output = self.execute(line)
            except EOFError:
                break
            except (ValueError, OSError) as error:
                output = f"error: {error}"
            if output:
                stdout.write(output + "\n")
