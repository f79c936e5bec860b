"""JSON-lines TCP server/client tests: round trips, typed error
propagation, concurrent clients, and the remote shell."""

from __future__ import annotations

import io
import json
import socket
import threading

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    Overloaded,
    ParseError,
    ServiceError,
)
from repro.db import Database
from repro.query import parser
from repro.serve import DatabaseService, net
from repro.serve.net import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    RemoteShell,
    ServiceClient,
    ServiceServer,
)


#: Requests with one wrongly typed field each, and the field the typed
#: ``bad request`` reply must name (also driven, memo in front, by
#: ``test_serve_answers.py``).
WRONGLY_TYPED = [
    ({"op": "navigate", "pattern": None}, "pattern"),
    ({"op": "match", "pattern": 7}, "pattern"),
    ({"op": "query", "query": 5}, "query"),
    ({"op": "probe", "query": None}, "query"),
    ({"op": "try", "entity": ["JOHN"]}, "entity"),
    ({"op": "include", "rule": 3}, "rule"),
    ({"op": "rule", "name": 1, "text": "(a, R, b) => (b, R, a)"},
     "name"),
    ({"op": "add", "fact": "abc"}, "fact"),
    ({"op": "add", "fact": ["A", "B"]}, "fact"),
    ({"op": "remove", "fact": ["A", "B", 3]}, "fact"),
    ({"op": "limit", "n": "x"}, "n"),
    ({"op": "limit", "n": True}, "n"),
    ({"op": "ask", "query": "(JOHN, ∈, EMPLOYEE)", "deadline": "1"},
     "deadline"),
    ({"op": "ping", "trace": "zzz"}, "trace"),
    ({"op": "ask", "query": "(JOHN, ∈, EMPLOYEE)", "trace": [1]},
     "trace"),
]


@pytest.fixture()
def served():
    """A live service + server on an ephemeral port."""
    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    db.add("EMPLOYEE", "EARNS", "SALARY")
    service = DatabaseService(db)
    server = ServiceServer(service, port=0)
    server.start()
    try:
        yield service, server.address
    finally:
        server.close()
        service.close()


class TestRoundTrips:
    def test_ping(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            info = client.ping()
            assert info["protocol"] == PROTOCOL_VERSION
            assert info["facts"] > 0

    def test_query_rows_sorted(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            rows = client.query("(x, ∈, EMPLOYEE)")
            assert rows == sorted(rows)
            assert ["JOHN"] in rows

    def test_ask_and_derived_facts(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            assert client.ask("(JOHN, EARNS, SALARY)") is True
            assert client.ask("(JOHN, EARNS, NOTHING)") is False

    def test_write_then_read(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            assert client.add("MARY", "∈", "EMPLOYEE") is True
            assert client.add("MARY", "∈", "EMPLOYEE") is False
            assert client.ask("(MARY, EARNS, SALARY)")
            assert client.remove("MARY", "∈", "EMPLOYEE") is True

    def test_match_try_navigate(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            facts = client.match("(JOHN, *, *)")
            assert ["JOHN", "∈", "EMPLOYEE"] in facts
            mentions = client.try_("JOHN")
            assert ["JOHN", "∈", "EMPLOYEE"] in mentions
            rendered = client.navigate("(JOHN, *, *)")
            assert "EMPLOYEE" in rendered

    def test_probe(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            outcome = client.probe("(JOHN, EARNS, y)")
            assert outcome["succeeded"] is True
            assert ["SALARY"] in outcome["value"]

    def test_rule_and_limit(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            described = client.define_rule(
                "sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
            assert "MARRIED-TO" in described
            client.add("ANN", "MARRIED-TO", "BOB")
            assert client.ask("(BOB, MARRIED-TO, ANN)")
            client.exclude("sym")
            assert not client.ask("(BOB, MARRIED-TO, ANN)")
            client.include("sym")
            assert client.ask("(BOB, MARRIED-TO, ANN)")
            assert client.limit(3) == 3
            assert client.limit(None) is None

    def test_stats(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            stats = client.stats()
            assert stats["closed"] is False
            db_stats = client.database_stats()
            assert db_stats["base_facts"] > 0

    def test_rows_lines_are_what_row_lists_gave(self, served):
        """A rows answer goes out as sorted tuples: byte for byte the
        line that sorted per-row lists produced (``json.dumps`` writes
        a tuple as an array), for ``query`` and for a probe's value."""
        service, (host, port) = served
        for i in range(99):
            service.add(f"E{i:02d}", "REPORTS-TO", f"BOSS{i % 7}")
        service.add("ZOË", "REPORTS-TO", "BOSS0")
        text = "(x, REPORTS-TO, y)"
        result = service.query(text)
        assert len(result) == 100
        as_lists = sorted(list(row) for row in result)
        assert net._encode({"ok": True, "result": net._rows(result)}) \
            == net._encode({"ok": True, "result": as_lists})
        outcome = {"status": "ok", "value": result}
        assert net._encode(net._menu(outcome)) \
            == net._encode(dict(outcome, value=as_lists))
        with ServiceClient(host, port) as client:
            assert client.query(text) == as_lists
            assert ["ZOË", "BOSS0"] in client.query(text)


class TestErrorPropagation:
    def test_parse_error_reraises_typed(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            with pytest.raises(ParseError):
                client.query("(x, BOGUS")

    def test_deadline_exceeded_over_the_wire(self, served):
        service, (host, port) = served
        for i in range(40):
            service.add(f"E{i}", "∈", "CLS")
        with ServiceClient(host, port) as client:
            with pytest.raises(DeadlineExceeded):
                client.query("(x, ∈, CLS)", deadline=-1.0)

    def test_mid_flight_deadline_cancellation(self, served):
        """A *positive* deadline that expires during evaluation: the
        cooperative checks inside the evaluator must cancel the read
        mid-flight (not just reject an already-expired deadline at
        admission), and the connection must survive to serve the next
        request."""
        service, (host, port) = served
        service.add_facts([(f"E{i}", "∈", f"CLS{i % 3}")
                           for i in range(2400)])
        with ServiceClient(host, port) as client:
            # Warm the snapshot's closure under a different result key
            # so the deadlined query below spends its time in plan
            # execution, where the cooperative checks live.  The
            # two-conjunct self-join is far too large for the budget,
            # so the compiled executor's batch-boundary checkpoints
            # must cancel it between operators.
            client.query("(E0, ∈, y)")
            with pytest.raises(DeadlineExceeded):
                client.query("(x, ∈, c) and (y, ∈, c)", deadline=0.0003)
            # Mid-flight cancellation left the connection healthy.
            assert client.ping()["protocol"] == PROTOCOL_VERSION
            rows = client.query("(x, ∈, CLS1)")
            assert len(rows) == 800

    def test_unknown_op_is_service_error(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError):
                client._call("frobnicate")

    def test_malformed_request_keeps_connection_alive(self, served):
        _, (host, port) = served
        with socket.create_connection((host, port), timeout=10.0) as sock:
            handle = sock.makefile("rw", encoding="utf-8")
            handle.write("this is not json\n")
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is False
            # The connection survives the bad line.
            handle.write(json.dumps({"op": "ping"}) + "\n")
            handle.flush()
            assert json.loads(handle.readline())["ok"] is True

    def test_oversized_line_gets_typed_error_then_close(self, served):
        _, (host, port) = served
        with socket.create_connection((host, port), timeout=10.0) as sock:
            try:
                # Twice the cap, never a newline: the server must answer
                # without buffering the whole line.
                sock.sendall(b"x" * (2 * MAX_LINE_BYTES))
            except OSError:
                pass    # the server may already have hung up on us
            handle = sock.makefile("rb")
            response = json.loads(handle.readline())
            assert response["ok"] is False
            assert response["error"] == "ServiceError"
            assert str(MAX_LINE_BYTES) in response["message"]
            assert handle.readline() == b""     # connection closed
        # The server lives on, and a line exactly at the cap is served.
        with socket.create_connection((host, port), timeout=10.0) as sock:
            request = json.dumps({"op": "ping"}).encode("utf-8")
            padding = b" " * (MAX_LINE_BYTES - len(request) - 1)
            sock.sendall(request + padding + b"\n")
            assert json.loads(sock.makefile("rb").readline())["ok"] is True

    def test_oversized_queries_answer_and_are_not_remembered(self, served):
        """Distinct query texts near the line cap are answered and
        then forgotten: the parse memo keeps no text past its bound,
        so a client cannot pin a megabyte per entry."""
        _, (host, port) = served
        size = parser._parse_remembered.cache_info().currsize
        with ServiceClient(host, port) as client:
            for n in range(4):
                padding = " " * (MAX_LINE_BYTES // 2 + n)
                assert client.query(f"(x, ∈,{padding}EMPLOYEE)") \
                    == [["JOHN"]]
                entity = "E" * parser.PARSE_MEMO_MAX_TEXT + str(n)
                assert client.query(f"(x, ∈, {entity})") == []
                assert client.probe(f"(JOHN, ∈, {entity})")["waves"]
        assert parser._parse_remembered.cache_info().currsize == size

    @pytest.mark.parametrize("request_,field", WRONGLY_TYPED, ids=lambda value: value if isinstance(value, str) else value["op"])
    def test_wrongly_typed_field_gets_typed_reply(self, served, request_,
                                                  field):
        """Every wrongly typed field is answered with a ``bad request``
        ServiceError naming it — never a dead handler thread (EOF), an
        accepted garbage write, or a ``writer failed`` — and the same
        connection still answers a ping."""
        service, (host, port) = served
        facts_before = service.query("(x, y, z)")
        with socket.create_connection((host, port), timeout=10.0) as sock:
            handle = sock.makefile("rw", encoding="utf-8")
            handle.write(json.dumps(request_) + "\n")
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is False
            assert response["error"] == "ServiceError"
            assert response["message"].startswith("bad request: ")
            assert repr(field) in response["message"]
            handle.write(json.dumps({"op": "ping"}) + "\n")
            handle.flush()
            assert json.loads(handle.readline())["ok"] is True
        assert service.query("(x, y, z)") == facts_before

    def test_missing_field_is_reported(self, served):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError):
                client._call("query")   # no "query" field


class TestConcurrentClients:
    def test_parallel_clients_roundtrip(self, served):
        _, (host, port) = served
        errors = []

        def worker(index):
            try:
                with ServiceClient(host, port) as client:
                    client.add(f"C{index}", "∈", "EMPLOYEE")
                    for _ in range(5):
                        assert client.ask(f"(C{index}, ∈, EMPLOYEE)")
            except Exception as error:   # noqa: BLE001 - recorded
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors[:3]


class TestPoolBackedServer:
    """The server with ``pool=``: reads served by replica processes,
    read-your-writes per connection, pool stats over the wire."""

    @pytest.fixture()
    def pool_served(self):
        from repro.serve import ReplicaPool

        db = Database()
        db.add("JOHN", "∈", "EMPLOYEE")
        db.add("EMPLOYEE", "EARNS", "SALARY")
        service = DatabaseService(db)
        pool = ReplicaPool(service, workers=2, read_timeout=60.0)
        server = ServiceServer(service, port=0, pool=pool)
        server.start()
        try:
            yield service, pool, server.address
        finally:
            server.close()
            pool.close()
            service.close()

    def test_reads_roundtrip_via_replicas(self, pool_served):
        _, pool, (host, port) = pool_served
        with ServiceClient(host, port) as client:
            assert client.ping()["workers"] == 2
            assert ["JOHN"] in client.query("(x, ∈, EMPLOYEE)")
            assert client.ask("(JOHN, EARNS, SALARY)") is True
            assert "EMPLOYEE" in client.navigate("(JOHN, *, *)")
            outcome = client.probe("(JOHN, EARNS, y)")
            assert outcome["succeeded"] is True
        assert pool.stats()["reads"] >= 4

    def test_read_your_writes_per_connection(self, pool_served):
        _, _, (host, port) = pool_served
        with ServiceClient(host, port) as client:
            for index in range(5):
                assert client.add(f"W{index}", "∈", "EMPLOYEE") is True
                # Immediately read back over the same connection: the
                # per-connection version floor must route this to a
                # caught-up replica or fall back to the primary.
                assert client.ask(f"(W{index}, EARNS, SALARY)") is True

    def test_typed_errors_via_replicas(self, pool_served):
        _, _, (host, port) = pool_served
        with ServiceClient(host, port) as client:
            with pytest.raises(ParseError):
                client.query("(x, BOGUS")

    def test_stats_include_pool(self, pool_served):
        _, _, (host, port) = pool_served
        with ServiceClient(host, port) as client:
            stats = client.stats()
            assert stats["pool"]["workers"] == 2
            assert stats["pool"]["alive"] == 2


class TestRemoteShell:
    def run_shell(self, served, script):
        _, (host, port) = served
        with ServiceClient(host, port) as client:
            stdout = io.StringIO()
            RemoteShell(client).run(stdin=io.StringIO(script),
                                    stdout=stdout)
            return stdout.getvalue()

    def test_session_transcript(self, served):
        output = self.run_shell(served, "\n".join([
            "ping",
            "query (x, ∈, EMPLOYEE)",
            "add MARY ∈ EMPLOYEE",
            "ask (MARY, EARNS, SALARY)",
            "try JOHN",
            "(JOHN, *, *)",
            "stats",
            "quit",
        ]) + "\n")
        assert "ok: version" in output
        assert "(JOHN)" in output
        assert "added" in output
        assert "yes" in output
        assert "(JOHN, ∈, EMPLOYEE)" in output
        assert "pending_writes: 0" in output

    def test_error_rendering(self, served):
        output = self.run_shell(served, "query (x, BOGUS\nquit\n")
        assert "error (ParseError)" in output

    def test_unknown_command(self, served):
        output = self.run_shell(served, "shazam\nquit\n")
        assert "unknown command" in output

    def test_arguments_parse_like_the_local_shell(self, served):
        """``execute`` answers every spelling with text: quoted
        entities are one argument, ``limit off`` is the documented
        spelling, and wrong arity gets the local shell's usage line
        (all of these raised out of ``execute``)."""
        service, (host, port) = served
        with ServiceClient(host, port) as client:
            shell = RemoteShell(client)
            assert shell.execute('add "JOHN SMITH" ∈ EMPLOYEE') == "added"
            assert shell.execute("ask ('JOHN SMITH', EARNS, SALARY)") \
                == "yes"
            assert shell.execute('remove "JOHN SMITH" ∈ EMPLOYEE') \
                == "removed"
            assert shell.execute("add A B") \
                == "usage: add SOURCE RELATIONSHIP TARGET"
            assert shell.execute("remove A B") \
                == "usage: remove SOURCE RELATIONSHIP TARGET"
            assert shell.execute('add "A B C').startswith("error: ")
            for word in ("off", "none", "UNLIMITED"):
                assert shell.execute(f"limit {word}") \
                    == "composition unlimited"
                assert service.read_view().composition_limit is None
            assert shell.execute("limit 2") \
                == "composition limit set to 2"
            assert service.read_view().composition_limit == 2
            for bad in ("limit", "limit 0", "limit two", "limit 1 2"):
                assert shell.execute(bad).startswith("usage: limit N")
            assert shell.execute("rule lonely").startswith("usage: rule")
            assert shell.execute("slowlog many") == "usage: slowlog [N]"
