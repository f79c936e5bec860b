"""The net layer's answer memo and byte framing.

A repeated plain read is answered with the bytes the published
snapshot already gave for the same request line; everything here checks
that this never changes *what* is answered — through writes, controls,
a lagging replica worker, traced and deadlined requests, errors, a
byte budget under a scan, odd framing and racing threads — on a plain
service and behind a ``ReplicaPool(workers=1)``.  It is also the only
place a whole answer is remembered: the last class pins that a repeat
below the wire is computed again.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    ParseError,
    QueryError,
    ServiceClosed,
    ServiceError,
)
from repro.db import Database
from repro.obs import Telemetry, use_telemetry
from repro.serve import DatabaseService, ReplicaPool
from repro.serve import net
from repro.serve.net import MAX_LINE_BYTES, ServiceClient, ServiceServer

from .conftest import primary_busy, replica_served
from .test_serve_net import WRONGLY_TYPED

BASE_FACTS = [
    ("JOHN", "∈", "EMPLOYEE"),
    ("MARY", "∈", "EMPLOYEE"),
    ("EMPLOYEE", "EARNS", "SALARY"),
    ("EMPLOYEE", "≺", "PERSON"),
    ("JOHN", "WORKS-FOR", "SHIPPING"),
    ("SHIPPING", "PART-OF", "ACME"),
]


def build(operations=()) -> Database:
    """A fresh, uncached database: the base facts, then ``operations``
    (``(method name, *arguments)``) replayed in order."""
    db = Database()
    for fact in BASE_FACTS:
        db.add(*fact)
    for name, *arguments in operations:
        getattr(db, name)(*arguments)
    return db


class Stack:
    """service [+ pool] + server, and raw access to the socket."""

    def __init__(self, pooled: bool, db: Database = None):
        self.service = DatabaseService(db if db is not None else build())
        self.pool = (ReplicaPool(self.service, workers=1) if pooled
                     else None)
        self.server = ServiceServer(self.service, port=0, pool=self.pool)
        self.server.start()
        self.address = self.server.address

    def close(self) -> None:
        self.server.close()
        if self.pool is not None:
            self.pool.close()
        self.service.close()

    def client(self, **options) -> ServiceClient:
        return ServiceClient(*self.address, **options)

    def answers(self) -> dict:
        return self.server.answer_stats()

    def raw(self) -> "RawConnection":
        return RawConnection(self.address)


class RawConnection:
    """A socket that sends what it is told and reads whole lines."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30.0)
        self.reader = self.sock.makefile("rb")

    def line(self) -> bytes:
        return self.reader.readline()

    def ask(self, request) -> bytes:
        if not isinstance(request, bytes):
            request = json.dumps(request, ensure_ascii=False).encode("utf-8")
        self.sock.sendall(request + b"\n")
        return self.line()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.fixture(params=["plain", "pooled"])
def stack(request):
    built = Stack(pooled=request.param == "pooled")
    try:
        yield built
    finally:
        built.close()


@pytest.fixture()
def pooled_stack():
    built = Stack(pooled=True)
    try:
        yield built
    finally:
        built.close()


# ----------------------------------------------------------------------
# (a) a repeat is a hit, byte for byte
# ----------------------------------------------------------------------
class TestRepeats:
    def test_second_identical_read_is_a_hit_with_the_same_bytes(self, stack):
        requests = [
            {"op": "query", "query": "(x, ∈, EMPLOYEE)"},
            {"op": "ask", "query": "(JOHN, EARNS, SALARY)"},
            {"op": "match", "pattern": "(JOHN, *, *)"},
            {"op": "navigate", "pattern": "(JOHN, *, *)"},
            {"op": "try", "entity": "SHIPPING"},
            {"op": "probe", "query": "(JOHN, WORKS-FOR, ACME)"},
        ]
        with stack.raw() as raw:
            for number, request in enumerate(requests, 1):
                first = raw.ask(request)
                assert json.loads(first)["ok"] is True
                assert stack.answers()["hits"] == number - 1
                assert raw.ask(request) == first
                assert stack.answers()["hits"] == number
        answers = stack.answers()
        assert answers["misses"] == answers["entries"] == len(requests)
        assert 0 < answers["bytes"] <= answers["budget"]

    def test_another_spelling_is_a_miss_with_the_same_answer(self, stack):
        with stack.client() as client:
            rows = client.query("(x, ∈, EMPLOYEE)")
            assert client.query("(x,  ∈,  EMPLOYEE)") == rows
            assert stack.answers()["hits"] == 0
            assert stack.answers()["misses"] == 2
            assert client.query("(x,  ∈,  EMPLOYEE)") == rows
            assert stack.answers()["hits"] == 1

    def test_a_hit_is_shared_between_connections(self, stack):
        with stack.client() as one, stack.client() as other:
            rendered = one.navigate("(JOHN, *, *)")
            assert other.navigate("(JOHN, *, *)") == rendered
        assert stack.answers()["hits"] == 1

    def test_wire_stats_carry_the_memo(self, stack):
        with stack.client() as client:
            client.ask("(JOHN, ∈, EMPLOYEE)")
            client.ask("(JOHN, ∈, EMPLOYEE)")
            block = client.stats()["answers"]
        assert block["hits"] == 1 and block["misses"] == 1
        assert block["entries"] == 1
        assert block["budget"] == net.ANSWER_BYTES


# ----------------------------------------------------------------------
# (b) every publish invalidates
# ----------------------------------------------------------------------
READS = [
    ("navigate", "(JOHN, *, *)"),
    ("navigate", "(ANN, *, *)"),
    ("query", "(x, EARNS, y)"),
    ("query", "(x, KNOWS, y)"),
    ("ask", "(JOHN, PART-OF, ACME)"),
    ("try_", "ANN"),
    ("match", "(*, ∈, PERSON)"),
    ("probe", "(ANN, EARNS, SALARY)"),
]


def wire_form(db: Database, verb: str, text: str):
    """What ``ServiceClient.<verb>(text)`` must return for ``db``."""
    value = getattr(db, verb)(text)
    if verb == "query":
        return sorted(list(row) for row in value)
    if verb in ("match", "try_"):
        return [list(fact) for fact in value]
    if verb == "navigate":
        return value.render()
    if verb == "probe":
        return {"succeeded": value.succeeded,
                "value": sorted(list(row) for row in value.value),
                "waves": len(value.waves)}
    return value


def read_all(client: ServiceClient) -> list:
    return [getattr(client, verb)(text) for verb, text in READS]


def expected_all(operations) -> list:
    return [wire_form(build(operations), verb, text)
            for verb, text in READS]


class TestInvalidation:
    def test_read_your_writes_and_everyone_elses(self, stack):
        with stack.client() as writer, stack.client() as reader:
            for client in (writer, reader):     # fill the memo twice over
                assert "ANN" not in client.navigate("(*, ∈, EMPLOYEE)")
                assert "ANN" not in client.navigate("(*, ∈, EMPLOYEE)")
            assert writer.add("ANN", "∈", "EMPLOYEE") is True
            assert "ANN" in writer.navigate("(*, ∈, EMPLOYEE)")
            # A connection that never wrote sees it too: the write was
            # acknowledged, so its batch had published.
            assert "ANN" in reader.navigate("(*, ∈, EMPLOYEE)")
            assert writer.remove("ANN", "∈", "EMPLOYEE") is True
            assert "ANN" not in reader.navigate("(*, ∈, EMPLOYEE)")
            assert "ANN" not in writer.navigate("(*, ∈, EMPLOYEE)")

    def test_each_write_and_control_invalidates(self, stack):
        steps = [
            ("add", ("ANN", "∈", "EMPLOYEE"),
             ("add", "ANN", "∈", "EMPLOYEE")),
            ("add", ("ANN", "KNOWS", "JOHN"),
             ("add", "ANN", "KNOWS", "JOHN")),
            ("define_rule", ("sym", "(a, KNOWS, b) => (b, KNOWS, a)"),
             ("define_rule", "sym", "(a, KNOWS, b) => (b, KNOWS, a)")),
            ("exclude", ("sym",), ("exclude", "sym")),
            ("include", ("sym",), ("include", "sym")),
            ("limit", (1,), ("limit", 1)),
            ("limit", (None,), ("limit", None)),
            ("remove", ("ANN", "∈", "EMPLOYEE"),
             ("remove_fact", ("ANN", "∈", "EMPLOYEE"))),
        ]
        operations = []
        with stack.client() as writer, stack.client() as reader:
            assert read_all(reader) == expected_all(operations)
            for verb, arguments, operation in steps:
                read_all(reader)        # whatever is kept is stale next
                getattr(writer, verb)(*arguments)
                operations.append(operation)
                wanted = expected_all(operations)
                assert read_all(writer) == wanted, operation
                assert read_all(reader) == wanted, operation
                hits = stack.answers()["hits"]
                assert read_all(reader) == wanted, operation
                assert stack.answers()["hits"] == hits + len(READS)

    def test_a_publish_leaves_an_empty_memo(self, stack):
        with stack.client() as client:
            client.query("(x, ∈, EMPLOYEE)")
            assert stack.answers()["entries"] == 1
            client.add("ANN", "∈", "EMPLOYEE")
            client.ping()       # any request notices the new snapshot
            answers = stack.answers()
            assert answers["entries"] == 0 and answers["bytes"] == 0


# ----------------------------------------------------------------------
# (c) a worker's answer is served, never kept
# ----------------------------------------------------------------------
class TestWorkerServedReads:
    def test_a_spilled_read_is_not_filed(self, pooled_stack):
        stack = pooled_stack
        stack.pool.wait_ready()
        with stack.client() as client:
            with primary_busy(stack.pool):
                rows = client.query("(x, ∈, EMPLOYEE)")
            assert rows == [["JOHN"], ["MARY"]]
            assert replica_served(stack.pool) == 1
            assert stack.answers()["entries"] == 0
            # The primary is idle again: computed there, kept, then hit.
            assert client.query("(x, ∈, EMPLOYEE)") == rows
            answers = stack.answers()
            assert answers["hits"] == 0 and answers["misses"] == 2
            assert answers["entries"] == 1
            assert client.query("(x, ∈, EMPLOYEE)") == rows
            assert stack.answers()["hits"] == 1
            assert replica_served(stack.pool) == 1

    def test_a_hit_does_not_need_the_primary_slot(self, pooled_stack):
        stack = pooled_stack
        with stack.client() as client:
            rendered = client.navigate("(JOHN, *, *)")
            with primary_busy(stack.pool):
                assert client.navigate("(JOHN, *, *)") == rendered
            assert replica_served(stack.pool) == 0
            assert stack.answers()["hits"] == 1


# ----------------------------------------------------------------------
# (d) what bypasses the memo, what is never kept
# ----------------------------------------------------------------------
class TestBypass:
    def test_traced_requests_reach_the_service(self, stack):
        with stack.client() as plain, stack.client(trace=True) as traced:
            rows = plain.query("(x, ∈, EMPLOYEE)")
            for _ in range(2):
                assert traced.query("(x, ∈, EMPLOYEE)") == rows
                names = {span["name"] for span in traced.last_trace}
                assert {"client.request", "net.dispatch"} <= names
        answers = stack.answers()
        assert answers["hits"] == 0 and answers["entries"] == 1

    def test_a_deadline_is_part_of_the_line_not_a_bypass(self, stack):
        plain = {"op": "query", "query": "(x, ∈, EMPLOYEE)"}
        deadlined = dict(plain, deadline=30.0)
        with stack.raw() as raw:
            first = raw.ask(deadlined)
            assert json.loads(first)["ok"] is True
            assert raw.ask(deadlined) == first
            answers = stack.answers()
            assert answers["hits"] == 1 and answers["entries"] == 1
            # Another deadline, or none, is another line.
            assert raw.ask(dict(plain, deadline=31.0)) == first
            assert raw.ask(plain) == first
            answers = stack.answers()
            assert answers["hits"] == 1 and answers["entries"] == 3

    def test_a_timed_out_attempt_is_computed_again(self, stack, monkeypatch):
        with stack.client() as client:
            # An expired deadline raises at the first checkpoint, as
            # often as it is sent: an error is never kept.
            for _ in range(2):
                with pytest.raises(DeadlineExceeded):
                    client.query("(x, EARNS, y) and (z, ∈, x)", deadline=0)
            assert stack.answers()["entries"] == 0
        # The same line, timing out once and then answered in time.
        reader = stack.pool if stack.pool is not None else stack.service
        attempts = []
        read = reader.read

        def late_once(op, *args, **kwargs):
            attempts.append(op)
            if len(attempts) == 1:
                raise DeadlineExceeded("deadline exceeded (injected)")
            return read(op, *args, **kwargs)

        monkeypatch.setattr(reader, "read", late_once)
        request = {"op": "query", "query": "(x, ∈, EMPLOYEE)",
                   "deadline": 30.0}
        with stack.raw() as raw:
            failed = json.loads(raw.ask(request))
            assert failed["ok"] is False
            assert failed["error"] == "DeadlineExceeded"
            assert stack.answers()["entries"] == 0
            answered = raw.ask(request)
            assert json.loads(answered)["result"] == [["JOHN"], ["MARY"]]
            assert raw.ask(request) == answered
        assert attempts == ["query", "query"]
        answers = stack.answers()
        assert answers["hits"] == 1 and answers["entries"] == 1

    def test_error_responses_are_never_kept(self, stack):
        with stack.client() as client:
            for _ in range(2):
                with pytest.raises(ParseError):
                    client.query("(x, BOGUS")
                with pytest.raises(QueryError):
                    client.probe("(x, ∈, EMPLOYEE) or (x, ∈, PERSON)")
                with pytest.raises(ServiceError):
                    client._call("query")       # no "query" field
            answers = stack.answers()
            assert answers["hits"] == answers["misses"] == 0
            assert answers["entries"] == 0
            # Nothing there yet is an answer, not an error: kept, and
            # dropped by the write that makes it wrong.
            assert client.try_("NOBODY") == []
            assert client.try_("NOBODY") == []
            assert stack.answers()["hits"] == 1
            client.add("NOBODY", "∈", "EMPLOYEE")
            assert ["NOBODY", "∈", "EMPLOYEE"] in client.try_("NOBODY")

    def test_other_operations_are_never_kept(self, stack):
        with stack.client() as client:
            for _ in range(2):
                client.ping()
                client.stats()
                client.database_stats()
                client.metrics()
            answers = stack.answers()
        assert answers["hits"] == answers["misses"] == 0
        assert answers["entries"] == 0

    def test_a_closed_service_answers_no_repeat(self, stack):
        with stack.client() as client:
            for _ in range(2):
                assert client.ask("(JOHN, ∈, EMPLOYEE)") is True
            assert stack.answers()["hits"] == 1
            stack.service.close()
            for _ in range(2):
                with pytest.raises(ServiceClosed):
                    client.ask("(JOHN, ∈, EMPLOYEE)")
            assert stack.answers()["hits"] == 1

    def test_wrongly_typed_requests_still_get_typed_replies(self, stack):
        with stack.raw() as raw:
            hot = {"op": "ask", "query": "(JOHN, ∈, EMPLOYEE)"}
            assert json.loads(raw.ask(hot))["result"] is True
            for _ in range(2):
                for request, field in WRONGLY_TYPED:
                    response = json.loads(raw.ask(request))
                    assert response["ok"] is False
                    assert response["error"] == "ServiceError"
                    assert response["message"].startswith("bad request: ")
                    assert repr(field) in response["message"]
            assert json.loads(raw.ask({"op": "ping"}))["ok"] is True
            assert json.loads(raw.ask(hot))["result"] is True
        answers = stack.answers()
        assert answers["hits"] == 1 and answers["entries"] == 1


# ----------------------------------------------------------------------
# (e) the byte budget
# ----------------------------------------------------------------------
class TestBudget:
    BUDGET = 64 << 10

    @pytest.fixture()
    def small(self, request, monkeypatch):
        """A stack holding one class of 60 members (a ~1.2 KB
        ``match``) and one of 600 (too large to keep), under a 64 KiB
        budget."""
        monkeypatch.setattr(net, "ANSWER_BYTES", self.BUDGET)
        db = build()
        for index in range(60):
            db.add(f"M{index:03d}", "∈", "CLUB")
        for index in range(600):
            db.add(f"C{index:03d}", "∈", "CROWD")
        built = Stack(pooled=request.param == "pooled", db=db)
        try:
            yield built
        finally:
            built.close()

    @pytest.mark.parametrize("small", ["plain", "pooled"], indirect=True)
    def test_a_scan_stays_inside_the_budget_and_the_hot_set_returns(
            self, small):
        stack = small
        hot = [f"(M{index:03d}, *, *)" for index in range(32)]
        with stack.client() as client:
            wanted = [client.navigate(text) for text in hot]
            assert stack.answers()["entries"] == 32
            # Distinct spellings of one pattern: distinct request
            # lines, one answer of known size.
            size = len(json.dumps(client.match("(*, ∈, CLUB)"),
                                  ensure_ascii=False).encode("utf-8"))
            scanned, spelling = 0, 0
            while scanned < 3 * self.BUDGET:
                spelling += 1
                client.match("(*, ∈, CLUB)" + " " * spelling)
                scanned += size
                answers = stack.answers()
                assert answers["bytes"] <= self.BUDGET
            assert answers["bytes"] > self.BUDGET // 4      # still filling
            assert answers["entries"] < spelling            # and evicting
            # The scan pushed the hot set out; one pass brings it back.
            assert [client.navigate(text) for text in hot] == wanted
            before = stack.answers()
            assert [client.navigate(text) for text in hot] == wanted
            after = stack.answers()
            assert after["hits"] == before["hits"] + len(hot)
            assert after["misses"] == before["misses"]

    @pytest.mark.parametrize("small", ["plain", "pooled"], indirect=True)
    def test_an_oversize_answer_is_served_and_not_kept(self, small):
        stack = small
        with stack.client() as client:
            crowd = client.match("(*, ∈, CROWD)")
            assert len(crowd) == 600
            assert client.match("(*, ∈, CROWD)") == crowd
            answers = stack.answers()
            assert answers["hits"] == 0 and answers["misses"] == 2
            assert answers["entries"] == 0
            # ... and costs the entries that fit nothing.
            club = client.match("(*, ∈, CLUB)")
            client.match("(*, ∈, CROWD)")
            assert client.match("(*, ∈, CLUB)") == club
            assert stack.answers()["hits"] == 1

    def test_an_entry_asked_for_during_a_scan_survives_it(self, monkeypatch):
        monkeypatch.setattr(net, "ANSWER_BYTES", 4096)
        answers = net._Answers(published=object())
        answers.file(b"hot", b"h" * 100)
        for index in range(200):        # ~5x the budget goes by
            answers.file(b"scan %d" % index, b"s" * 100)
            assert answers.get(b"hot") == b"h" * 100
            assert answers.stats()["bytes"] <= 4096
        assert answers.get(b"scan 0") is None
        assert answers.stats()["entries"] < 40


# ----------------------------------------------------------------------
# (f) framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_a_request_split_into_single_bytes(self, stack):
        request = json.dumps({"op": "ask",
                              "query": "(JOHN, ∈, EMPLOYEE)"},
                             ensure_ascii=False).encode("utf-8") + b"\n"
        with stack.raw() as raw:
            raw.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(2):
                for index in range(len(request)):
                    raw.sock.sendall(request[index:index + 1])
                assert json.loads(raw.line()) == {"ok": True,
                                                  "result": True}
        assert stack.answers()["hits"] == 1

    def test_two_requests_in_one_segment(self, stack):
        with stack.raw() as raw:
            raw.sock.sendall(
                b'{"op": "ask", "query": "(JOHN, EARNS, SALARY)"}\n'
                b'\n'
                b'  {"op": "ask", "query": "(JOHN, EARNS, NOTHING)"}  \r\n'
                b'{"op": "ping"}\n')
            assert json.loads(raw.line())["result"] is True
            assert json.loads(raw.line())["result"] is False
            assert json.loads(raw.line())["result"]["facts"] > 0

    def test_an_unterminated_last_line_is_answered_at_eof(self, stack):
        with stack.raw() as raw:
            raw.sock.sendall(
                '{"op": "ping"}\n'
                '{"op": "ask", "query": "(JOHN, ∈, PERSON)"}'.encode("utf-8"))
            raw.sock.shutdown(socket.SHUT_WR)
            assert json.loads(raw.line())["ok"] is True
            assert json.loads(raw.line()) == {"ok": True, "result": True}
            assert raw.line() == b""        # then the server hangs up

    def test_a_line_one_byte_over_the_cap(self, stack):
        request = json.dumps({"op": "ping"}).encode("utf-8")
        with stack.raw() as raw:
            # At the cap (newline included): served.
            padding = b" " * (MAX_LINE_BYTES - len(request) - 1)
            assert json.loads(raw.ask(request + padding))["ok"] is True
            # One more byte: typed reply, then close.
            response = json.loads(raw.ask(request + padding + b" "))
            assert response["ok"] is False
            assert response["error"] == "ServiceError"
            assert str(MAX_LINE_BYTES) in response["message"]
            assert raw.line() == b""
        with stack.client() as client:      # the server lives on
            assert client.ping()["facts"] > 0


# ----------------------------------------------------------------------
# The client side of the framing: a timeout may not desynchronise
# ----------------------------------------------------------------------
class SlowQueryService(DatabaseService):
    """``query`` answers late; everything else at once."""

    def read(self, op, *args, **kwargs):
        if op == "query":
            time.sleep(0.3)
        return super().read(op, *args, **kwargs)


class TestClientTimeout:
    def test_a_timed_out_client_is_closed_not_desynchronised(self):
        service = SlowQueryService(build())
        server = ServiceServer(service, port=0)
        server.start()
        try:
            client = ServiceClient(*server.address, timeout=0.05)
            assert client.ask("(JOHN, ∈, EMPLOYEE)") is True
            with pytest.raises(DeadlineExceeded) as raised:
                client.query("(x, ∈, EMPLOYEE)")
            assert "0.05" in str(raised.value)
            # The rows arrive (or would) after this: the next call may
            # never be answered with them.
            time.sleep(0.4)
            for _ in range(2):
                with pytest.raises(ServiceError) as closed:
                    client.ask("(JOHN, ∈, EMPLOYEE)")
                assert "connection closed" in str(closed.value)
            client.close()
            with ServiceClient(*server.address, timeout=30.0) as fresh:
                assert fresh.ask("(JOHN, ∈, EMPLOYEE)") is True
                assert fresh.query("(x, ∈, EMPLOYEE)") \
                    == [["JOHN"], ["MARY"]]
        finally:
            server.close()
            service.close()

    def test_a_server_hanging_up_mid_response_closes_the_client(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def half_answer():
            conn, _ = listener.accept()
            conn.recv(1 << 16)
            conn.sendall(b'{"ok": true, "resu')
            conn.close()

        thread = threading.Thread(target=half_answer)
        thread.start()
        try:
            client = ServiceClient(*listener.getsockname()[:2], timeout=10.0)
            with pytest.raises(ServiceError) as raised:
                client.ping()
            assert "server closed the connection" in str(raised.value)
            with pytest.raises(ServiceError) as closed:
                client.ping()
            assert "connection closed" in str(closed.value)
        finally:
            thread.join(10.0)
            listener.close()
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# (g) readers racing a writer
# ----------------------------------------------------------------------
class TestRacingPublishes:
    READERS = 8
    READS_EACH = 2000

    def test_a_read_parked_on_the_publishing_store_is_filed_correctly(self):
        """A whole request runs at the instant the writer has stored
        the new published pair and nothing after it.  Whatever the
        memo files for that request must be the new snapshot's answer:
        were the snapshot reads use stored separately from the pair the
        memo is keyed on, the parked read would compute on the old one,
        be filed under the new one and be served to the writer's own
        connection after its acknowledgement."""
        parked: list = []

        class ParkingService(DatabaseService):
            reader = None

            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if name == "_published_state" and self.reader is not None:
                    parked.append(self.reader.query("(x, ∈, EMPLOYEE)"))

        service = ParkingService(build())
        server = ServiceServer(service, port=0)
        server.start()
        try:
            with ServiceClient(*server.address) as writer, \
                    ServiceClient(*server.address) as reader:
                before = [["JOHN"], ["MARY"]]
                after = [["JOHN"], ["MARY"], ["SUE"]]
                assert writer.query("(x, ∈, EMPLOYEE)") == before
                service.reader = reader     # runs on the writer thread
                assert writer.add("SUE", "∈", "EMPLOYEE") is True
                service.reader = None
                assert parked == [after]
                hits = server.answer_stats()["hits"]
                assert writer.query("(x, ∈, EMPLOYEE)") == after
                assert reader.query("(x, ∈, EMPLOYEE)") == after
                # The parked read was on the published snapshot, so it
                # was kept: both of these were repeats of it.
                assert server.answer_stats()["hits"] == hits + 2
        finally:
            server.close()
            service.close()

    def test_a_read_that_straddles_a_publish_is_not_filed(self):
        """The request sees one published pair, a batch publishes, and
        only then does its read run: the answer is the new snapshot's,
        its memo is the old one's, and it is dropped."""
        class PublishingService(DatabaseService):
            armed = False

            def read(self, op, *args, **kwargs):
                if self.armed:
                    self.armed = False
                    assert self.add("SUE", "∈", "EMPLOYEE") is True
                return super().read(op, *args, **kwargs)

        service = PublishingService(build())
        server = ServiceServer(service, port=0)
        server.start()
        try:
            with ServiceClient(*server.address) as client:
                after = [["JOHN"], ["MARY"], ["SUE"]]
                service.armed = True
                assert client.query("(x, ∈, EMPLOYEE)") == after
                assert server.answer_stats()["entries"] == 0
                assert client.query("(x, ∈, EMPLOYEE)") == after
                answers = server.answer_stats()
                assert (answers["hits"], answers["misses"]) == (0, 2)
                assert client.query("(x, ∈, EMPLOYEE)") == after
                assert server.answer_stats()["hits"] == 1
        finally:
            server.close()
            service.close()

    def test_no_reader_ever_sees_less_than_was_acknowledged(self, stack):
        """The writer adds ``W0, W1, …`` to one class and notes each
        acknowledgement.  A reader notes the last acknowledged index
        before each read; the rows it gets must be exactly the members
        up to *some* index at or past that one — a memo entry that
        outlived its snapshot would fall short of it."""
        base = ["JOHN", "MARY"]
        acknowledged = [-1]
        done = threading.Event()
        failures: list = []
        threads_before = threading.active_count()

        def members(upto: int) -> list:
            return sorted([[name] for name in base]
                          + [[f"W{index:04d}"] for index in range(upto + 1)])

        def write() -> None:
            try:
                with stack.client() as client:
                    index = 0
                    while not done.is_set() and index < 400:
                        assert client.add(f"W{index:04d}", "∈",
                                          "EMPLOYEE") is True
                        acknowledged[0] = index
                        index += 1
                        time.sleep(0.002)
            except BaseException as error:  # noqa: BLE001
                failures.append(f"writer: {error!r}")

        def read() -> None:
            try:
                with stack.client() as client:
                    for number in range(self.READS_EACH):
                        floor = acknowledged[0]
                        if number % 2:
                            rows = client.query("(x, ∈, EMPLOYEE)")
                            seen = len(rows) - len(base) - 1
                            if seen < floor or rows != members(seen):
                                failures.append(
                                    f"query after W{floor} was"
                                    f" acknowledged: {len(rows)} rows,"
                                    f" last {rows[-1]}")
                                return
                        elif floor >= 0 and not client.ask(
                                f"(W{floor:04d}, ∈, EMPLOYEE)"):
                            failures.append(f"ask: W{floor} acknowledged"
                                            " and not there")
                            return
            except BaseException as error:  # noqa: BLE001
                failures.append(f"reader: {error!r}")

        writer = threading.Thread(target=write)
        readers = [threading.Thread(target=read)
                   for _ in range(self.READERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)     # more interleavings per second
        try:
            writer.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(120.0)
            done.set()
            writer.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:3]
        assert not writer.is_alive()
        assert not any(thread.is_alive() for thread in readers)
        assert acknowledged[0] >= 0
        answers = stack.answers()
        assert answers["hits"] > 0
        # Every query was one or the other (asks before the first
        # acknowledgement were not sent).
        assert answers["hits"] + answers["misses"] \
            >= self.READERS * self.READS_EACH // 2
        # Every connection was closed: its handler thread goes too.
        deadline = time.monotonic() + 10.0
        while threading.active_count() > threads_before \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= threads_before


# ----------------------------------------------------------------------
# (h) the memo is the one owner of repeats
# ----------------------------------------------------------------------
class TestTheMemoOwnsRepeats:
    """Nothing below the wire remembers an answer: a repeat over TCP is
    one execution and one memo hit, a repeat in process is a second
    execution with the same answer."""

    QUERY = "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, y)"
    NAVIGATE = "(JOHN, *, *)"
    FAILING_PROBE = "(MARY, WORKS-FOR, SHIPPING)"

    @staticmethod
    def executions(counters) -> dict:
        return {name: counters.get(name, 0) for name in (
            "exec.plans", "browse.navigations", "browse.probes",
            "browse.probe.retractions", "browse.probe.joins",
            "serve.net.answer_hits")}

    def test_over_tcp_a_repeat_is_one_execution_and_one_hit(self, stack):
        oracle = build()
        waves = oracle.probe(self.FAILING_PROBE).waves
        retractions = sum(len(wave.attempted) for wave in waves)
        joins = sum(wave.joins for wave in waves)
        # A multi-candidate wave is fewer joins than candidates.
        assert 0 < joins < retractions
        steps = [
            ("query", self.QUERY, {"exec.plans": 1}),
            ("navigate", self.NAVIGATE, {"browse.navigations": 1}),
            ("probe", self.FAILING_PROBE,
             {"browse.probes": 1, "browse.probe.retractions": retractions,
              "browse.probe.joins": joins, "exec.plans": 1 + joins}),
        ]
        with stack.client() as client:
            for verb, text, computed in steps:
                with use_telemetry(Telemetry()) as telemetry:
                    first = getattr(client, verb)(text)
                    assert getattr(client, verb)(text) == first
                assert first == wire_form(oracle, verb, text)
                assert self.executions(telemetry.counters) == {
                    **self.executions({}), **computed,
                    "serve.net.answer_hits": 1}
        assert stack.answers()["hits"] == len(steps)

    def test_in_process_a_repeat_is_computed_again(self, stack):
        oracle = build()
        for verb, text in (("query", self.QUERY),
                           ("navigate", self.NAVIGATE),
                           ("probe", self.FAILING_PROBE)):
            answers, executions = [], []
            for _ in range(2):
                with use_telemetry(Telemetry()) as telemetry:
                    answers.append(wire_form(stack.service, verb, text))
                executions.append(self.executions(telemetry.counters))
            assert answers[0] == answers[1] == wire_form(oracle, verb, text)
            assert any(executions[0].values())
            assert executions[1] == executions[0]
        assert stack.answers()["entries"] == 0

    def test_eight_first_askers_at_once_file_one_entry(self, stack):
        text = "(MARY, EARNS, ACME)"            # sent nowhere before
        wanted = wire_form(build(), "probe", text)
        assert wanted["succeeded"] is False and wanted["waves"] > 0
        barrier = threading.Barrier(8)
        got, failures = [], []

        def ask() -> None:
            try:
                with stack.client() as client:
                    barrier.wait(30.0)
                    got.append(client.probe(text))
            except BaseException as error:  # noqa: BLE001
                failures.append(repr(error))

        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not failures, failures[:3]
        assert got == [wanted] * 8
        answers = stack.answers()
        # Each may have computed it (there is no single flight); one
        # line is one entry however many filed it.  Behind the pool a
        # worker may have answered some, and those are never kept.
        assert answers["entries"] == 1
        assert answers["hits"] + answers["misses"] <= 8
        with stack.client() as client:
            assert client.probe(text) == wanted
        assert stack.answers()["hits"] == answers["hits"] + 1
