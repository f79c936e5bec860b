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
* ``{"op": "metrics"}`` returns the pool-wide merged metrics snapshot,
  asked of the live workers as it is read (``{"format": "prometheus"}``
  for text exposition; an old client's ``"refresh"`` is ignored);
* ``{"op": "slowlog"}`` returns the service's slow-query records.

Framing is bytes on both ends: each side reads the socket into its own
buffer and splits on ``\n`` (a request may arrive in pieces, several
in one segment, or unterminated before the peer shuts down its sending
side), lines longer than :data:`MAX_LINE_BYTES` get a typed reply and
a close, and both ends set ``TCP_NODELAY``.

A repeated read costs one lookup, and this is the one place a whole
answer is remembered (nothing below the wire keeps one).  The server
keeps, for the snapshot the service currently publishes, the encoded
response line of every untraced ``query`` / ``ask`` / ``match`` /
``navigate`` / ``try`` / ``probe`` it computed, under the raw request
line; a repeat of the line is answered with those bytes before it is
decoded (:class:`_Answers`).  The line contains the request's
``deadline``, if any: an ``ok`` response is a complete answer produced
inside it, so the same line again is a hit; a ``DeadlineExceeded`` is
an error and is never kept.
A publish — any write, ``limit``, ``include`` / ``exclude``, ``rule`` —
replaces the published snapshot and the memo goes with it, so a hit is
always an answer of the snapshot a fresh evaluation would have read.
The raw line is the handle: no protocol revision, and two spellings of
one query are two entries.

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
import shlex
import socket
import socketserver
import threading
from typing import Any, Dict, Optional, Tuple

from ..core.errors import (DeadlineExceeded, ReproError, ServiceError,
                           error_class)
from ..obs import telemetry as _obs
from ..obs.context import TraceContext, render_trace

__all__ = ["ServiceServer", "ServiceClient", "RemoteShell",
           "PROTOCOL_VERSION"]

PROTOCOL_VERSION = 3

#: Longest request line the server reads.  A longer line is answered
#: with a ``ServiceError`` and the connection is closed (the rest of
#: the line cannot be skipped without reading it).
MAX_LINE_BYTES = 1 << 20

#: Bytes of request lines plus encoded responses the answer memo keeps
#: for the published snapshot (see :class:`_Answers`).
ANSWER_BYTES = 2 << 20


def _rows(result) -> list:
    """A set of tuples as a deterministic JSON value: ``json.dumps``
    writes a tuple as an array, and tuples sort as lists do."""
    return sorted(result)


def _facts(facts) -> list:
    return [list(f) for f in facts]


def _menu(outcome: dict) -> dict:
    return dict(outcome, value=_rows(outcome["value"]))


#: The read verbs — asked of the service or the pool by this name, both
#: answering in the plain-data shape of
#: :data:`~repro.serve.replica.READ_OPS` — with the request field that
#: holds the text and the wire encoder of the answer.  These are also
#: exactly the requests whose encoded answers the memo may keep.
_READS = {
    "query": ("query", _rows),
    "ask": ("query", bool),
    "match": ("pattern", _facts),
    "navigate": ("pattern", str),
    "try": ("entity", _facts),
    "probe": ("query", _menu),
}

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
    limit = request.get("limit")
    if limit is not None and (not isinstance(limit, int)
                              or isinstance(limit, bool) or limit < 0):
        raise bad("limit", "a non-negative integer or null")
    deadline = request.get("deadline")
    if deadline is not None and (not isinstance(deadline, (int, float))
                                 or isinstance(deadline, bool)):
        raise bad("deadline", "a number or null")
    trace = request.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise bad("trace", "an object")


def _encode(message: Dict[str, Any]) -> bytes:
    """One protocol line."""
    return (json.dumps(message, ensure_ascii=False) + "\n").encode("utf-8")


class _Answers:
    """The encoded response lines one published snapshot has given,
    by stripped raw request line.

    The server finds the memo by the replication sequence of
    ``service.published_state()`` — every publish, and nothing else,
    makes a new pair with the next number — and starts an empty one
    when that has moved, which is the whole of invalidation.  It notices
    on the next request, not at the publish: until one arrives the
    server still holds the retired answers (at most the budget), but
    not the retired snapshot, which the writer frees by refcount as it
    publishes.  Size is bounded by
    :data:`ANSWER_BYTES` with two generations: entries are filed in
    ``young``; when it would pass half the budget it becomes ``old``
    and the previous ``old`` is dropped; a hit in ``old`` moves the
    entry back to ``young``.  A scan of distinct requests therefore
    evicts only what nobody asked for while it passed.
    """

    __slots__ = ("published", "young", "old", "young_bytes", "old_bytes",
                 "_lock")

    def __init__(self, published: int):
        self.published = published      # the publish's sequence number
        self.young: Dict[bytes, bytes] = {}
        self.old: Dict[bytes, bytes] = {}
        self.young_bytes = self.old_bytes = 0
        self._lock = threading.Lock()

    def get(self, line: bytes) -> Optional[bytes]:
        encoded = self.young.get(line)
        if encoded is None and self.old:
            with self._lock:
                encoded = self.old.pop(line, None)
                if encoded is not None:
                    self.old_bytes -= len(line) + len(encoded)
                    self._file(line, encoded)
        return encoded

    def file(self, line: bytes, encoded: bytes) -> None:
        # One answer may not flush a sixteenth of the others.
        if len(line) + len(encoded) <= ANSWER_BYTES // 16:
            with self._lock:
                if line not in self.young:
                    self._file(line, encoded)

    def _file(self, line: bytes, encoded: bytes) -> None:
        size = len(line) + len(encoded)
        if self.young_bytes + size > ANSWER_BYTES // 2:
            self.old, self.old_bytes = self.young, self.young_bytes
            self.young, self.young_bytes = {}, 0
        self.young[line] = encoded
        self.young_bytes += size

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self.young) + len(self.old),
                "bytes": self.young_bytes + self.old_bytes}


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

    Repeats of a read are answered from the published snapshot's
    answer memo (module docstring; :meth:`answer_stats`), with or
    without a ``deadline`` (it is part of the line the memo keys on).
    Requests carrying ``trace`` (their spans must be real), error
    responses — a timed-out attempt among them — and answers a replica
    worker computed (it may lag) are never kept.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 7474,
                 pool=None):
        self.service = service
        self.pool = pool
        self._answers = _Answers(service.published_state()[1])
        # Stats only: handler threads bump these without a lock.
        self._answer_hits = 0
        self._answer_misses = 0

        outer = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self):
                sock = self.request
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                state: Dict[str, Any] = {"min_version": 0}
                buffer = b""
                while True:
                    end = buffer.find(b"\n") + 1    # 0: no whole line yet
                    if not end and len(buffer) <= MAX_LINE_BYTES:
                        chunk = sock.recv(1 << 16)
                        if chunk:
                            buffer += chunk
                            continue
                        if not buffer.strip():
                            return
                        end = len(buffer)   # EOF after an unterminated line
                    if (end or len(buffer)) > MAX_LINE_BYTES:
                        sock.sendall(_encode(outer._failure(ServiceError(
                            f"request line exceeds {MAX_LINE_BYTES}"
                            f" bytes; closing connection"))))
                        return
                    line, buffer = buffer[:end].strip(), buffer[end:]
                    if line:
                        sock.sendall(outer._answer(line, state))

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None

    def _answer(self, line: bytes, state: Dict[str, Any]) -> bytes:
        """The response line for one stripped request line: the bytes
        the published snapshot already answered it with, or a computed
        response — kept, when it is an untraced read's and the snapshot
        it was computed on is still the published one."""
        published = self.service.published_state()
        answers = self._answers
        if answers.published != published[1]:
            # A batch published: what the last snapshot answered goes
            # with it.  (Two racing threads may each start a memo; one
            # wins, the other's few entries are recomputed.)
            answers = self._answers = _Answers(published[1])
        # A closed service answers nothing, repeats included: the miss
        # path raises its ServiceClosed.
        encoded = None if self.service.closed else answers.get(line)
        if encoded is not None:
            self._answer_hits += 1
            if _obs.ENABLED:
                _obs.TELEMETRY.count("serve.net.requests")
                _obs.TELEMETRY.count("serve.net.answer_hits")
            return encoded
        response, keep = self._respond(
            line.decode("utf-8", errors="replace"), state)
        encoded = _encode(response)
        # An answer computed across a publish is newer than its memo,
        # which nobody consults again: drop it rather than reason.
        if keep and self.service.published_state()[1] == published[1]:
            answers.file(line, encoded)
            if _obs.ENABLED:
                _obs.TELEMETRY.gauge("serve.net.answer_bytes",
                                     answers.stats()["bytes"])
        return encoded

    def _respond(self, line: str, state: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], bool]:
        """The response to one request line, and whether the answer
        memo may keep it (see :meth:`_serve`)."""
        ctx: Optional[TraceContext] = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServiceError("request must be a JSON object")
            _check_fields(request)
            ctx = TraceContext.from_wire(request.get("trace"))
            if ctx is None:
                result, keep = self._serve(request, state, None)
            else:
                with ctx.span("net.dispatch", role="server",
                              op=request.get("op", "")):
                    result, keep = self._serve(request, state, ctx)
        except ReproError as error:
            return self._failure(error, ctx), False
        except (KeyError, TypeError, ValueError,
                json.JSONDecodeError) as error:
            return self._failure(
                ServiceError(f"bad request: {error!r}"), ctx), False
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.net.requests")
        response = {"ok": True, "result": result}
        if ctx is not None:
            response["trace"] = ctx.collect()
        return response, keep

    def _serve(self, request: Dict[str, Any], state: Dict[str, Any],
               ctx: Optional[TraceContext]) -> Tuple[Any, bool]:
        """One checked request's result in wire form, and whether it is
        the primary's answer to a plain read: one of :data:`_READS`
        without ``trace`` (its spans must reach the service), not
        computed by a replica worker (it may lag the published
        snapshot).  A ``deadline`` does not make a read less plain: it
        is in the line the memo keys on, and a result returned here
        was by definition produced inside it."""
        op = request.get("op")
        read = _READS.get(op)
        if read is None:
            return self._dispatch(op, request, state, ctx), False
        field, encode = read
        deadline = request.get("deadline")
        if self.pool is None:
            value, by_primary = self.service.read(
                op, request[field], deadline, ctx), True
        else:
            # The connection's read-your-writes floor: the replication
            # sequence its last acknowledged write landed in, so a
            # client that wrote over this socket never reads a replica
            # that has not caught up (the pool falls back to the
            # primary if none has).
            value, by_primary = self.pool.read(
                op, request[field], deadline,
                min_version=state["min_version"], ctx=ctx)
        plain = ctx is None
        if plain:
            self._answer_misses += 1
            if _obs.ENABLED:
                _obs.TELEMETRY.count("serve.net.answer_misses")
        return encode(value), plain and by_primary

    def _dispatch(self, op, request: Dict[str, Any], state: Dict[str, Any],
                  ctx: Optional[TraceContext]) -> Any:
        """Everything but the reads of :data:`_READS`."""
        service, pool = self.service, self.pool
        deadline = request.get("deadline")
        if op == "ping":
            info = service.ping()
            info["protocol"] = PROTOCOL_VERSION
            if pool is not None:
                info["workers"] = pool.workers
            return info
        if op == "metrics":
            if pool is not None:
                snapshot = pool.metrics()
            else:
                snapshot = _obs.active_telemetry().snapshot()
            if request.get("format") == "prometheus":
                return _obs.to_prometheus(snapshot)
            return snapshot
        if op == "slowlog":
            return service.slow_log.snapshot(request.get("limit"))
        if op == "checkpoint":
            return service.checkpoint(deadline=deadline)
        if op == "stats":
            stats = service.stats()
            if pool is not None:
                stats["pool"] = pool.stats()
            stats["answers"] = self.answer_stats()
            return stats
        if op == "db_stats":
            if pool is None:
                return service.database_stats(deadline=deadline)
            return pool.database_stats(
                deadline=deadline, min_version=state["min_version"], ctx=ctx)
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
        else:
            raise ServiceError(f"unknown operation {op!r}")
        # A write (or control op) returned: this batch has published, so
        # raise the connection's read-your-writes floor to it.
        state["min_version"] = service.applied_seq
        return result

    def answer_stats(self) -> Dict[str, int]:
        """The answer memo: lifetime hits and misses (plain reads it
        held / did not hold), and what it keeps for the published
        snapshot against its byte budget."""
        return {"hits": self._answer_hits, "misses": self._answer_misses,
                **self._answers.stats(), "budget": ANSWER_BYTES}

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
        self._sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.trace = trace
        #: Span records of the most recent traced call (wire dicts).
        self.last_trace: list = []

    def _call(self, op: str, **fields) -> Any:
        request = {"op": op}
        request.update({k: v for k, v in fields.items() if v is not None})
        return self._call_raw(request)

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        sock = self._sock
        if sock is None:
            raise ServiceError("connection closed: open a new client")
        # The protocol has no request ids, so a response abandoned
        # half-way or unread would be taken for the next request's:
        # whatever interrupts this exchange closes the connection.
        try:
            sock.sendall(_encode(request))
            chunks = []
            while not chunks or not chunks[-1].endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise ServiceError("server closed the connection")
                chunks.append(chunk)
        except socket.timeout:
            seconds = sock.gettimeout()
            self.close()
            raise DeadlineExceeded(
                f"no response within the client's timeout of {seconds}s;"
                f" connection closed") from None
        except BaseException:
            self.close()
            raise
        return json.loads(b"".join(chunks))

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

    def metrics(self, format: Optional[str] = None):
        """The server's (pool-wide, merged) metrics snapshot;
        ``format="prometheus"`` returns exposition text instead."""
        return self._call("metrics", format=format)

    def slowlog(self, limit: Optional[int] = None) -> dict:
        """The server's slow-query log:
        ``{"total": n, "records": [...]}``."""
        return self._call("slowlog", limit=limit)

    def render_last_trace(self) -> str:
        """The most recent traced call's span tree as text."""
        return render_trace(self.last_trace)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

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
                    " probe Q | add S R T | remove S R T | limit N|off |"
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
        if command in ("add", "remove"):
            try:
                words = shlex.split(rest)
            except ValueError as error:
                return f"error: {error}"
            if len(words) != 3:
                return f"usage: {command} SOURCE RELATIONSHIP TARGET"
            if command == "add":
                return "added" if client.add(*words) else "already present"
            return "removed" if client.remove(*words) else "not present"
        if command == "limit":
            word = rest.lower()
            if word in ("off", "none", "unlimited"):
                client.limit(None)
                return "composition unlimited"
            if not word.isdigit() or int(word) < 1:
                return "usage: limit N  (1 disables; 'off' = unlimited)"
            client.limit(int(word))
            return f"composition limit set to {word}"
        if command == "rule":
            words = rest.split(None, 1)
            if len(words) != 2:
                return "usage: rule NAME BODY => HEAD [where GUARDS]"
            return "defined " + client.define_rule(*words)
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
            snapshot = client.metrics()
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
            if rest and not rest.isdigit():
                return "usage: slowlog [N]"
            log = client.slowlog(limit=int(rest or 10))
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
