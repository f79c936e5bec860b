"""Tests for the interactive browser shell."""

from __future__ import annotations

import io

import pytest

from repro.core.facts import Fact
from repro.datasets import music, university
from repro.db import Database
from repro.shell import BrowserShell, main


@pytest.fixture
def shell(music_db):
    return BrowserShell(music_db)


@pytest.fixture
def probing_shell(university_db):
    return BrowserShell(university_db)


class TestNavigationCommands:
    def test_template_line_navigates(self, shell):
        output = shell.execute("(JOHN, *, *)")
        assert output.splitlines()[0] == "(JOHN, *, *)"
        assert "FELIX" in output

    def test_go(self, shell):
        output = shell.execute("go PC#9-WAM")
        assert "COMPOSED-BY" in output and "MOZART" in output

    def test_incoming(self, shell):
        output = shell.execute("incoming FELIX")
        assert "JOHN" in output

    def test_between(self, shell):
        output = shell.execute("between LEOPOLD MOZART")
        assert "FATHER-OF" in output

    def test_back(self, shell):
        shell.execute("go JOHN")
        shell.execute("go PC#9-WAM")
        output = shell.execute("back")
        assert output.splitlines()[0] == "(JOHN, *, *)"
        assert shell.execute("back") == "(no earlier step)"

    def test_navigation_sees_limit_change(self, shell):
        before = shell.execute("between LEOPOLD MOZART")
        assert "PERFORMED.PC#9-WAM.COMPOSED-BY" not in before
        shell.execute("limit 2")
        after = shell.execute("between LEOPOLD MOZART")
        assert "PERFORMED.PC#9-WAM.COMPOSED-BY" in after


class TestQueryCommands:
    def test_query_with_rows(self, shell):
        output = shell.execute("query (JOHN, LIKES, y)")
        assert output.splitlines()[0] == "y"
        assert "  FELIX" in output

    def test_query_empty(self, shell):
        assert shell.execute("query (NOBODY, LIKES, y)") == "(empty)"

    def test_ask(self, shell):
        assert shell.execute("ask (JOHN, LIKES, FELIX)") == "true"
        assert shell.execute("ask (FELIX, LIKES, JOHN)") == "false"

    def test_try(self, shell):
        output = shell.execute("try MOZART")
        assert "(LEOPOLD, FATHER-OF, MOZART)" in output

    def test_try_unknown(self, shell):
        assert shell.execute("try NOBODY") == "(no facts mention it)"

    def test_parse_errors_are_reported_not_raised(self, shell):
        output = shell.execute("query (A, B")
        assert output.startswith("error:")


class TestProbing:
    def test_probe_failure_shows_menu(self, probing_shell):
        output = probing_shell.execute(
            "probe " + university.STUDENTS_LOVE_FREE)
        assert "Query failed. Retrying" in output
        assert "1. Success with FRESHMAN instead of STUDENT" in output

    def test_select_after_probe(self, probing_shell):
        probing_shell.execute("probe " + university.STUDENTS_LOVE_FREE)
        assert "CAMPUS-CONCERTS" in probing_shell.execute("select 1")
        assert "COFFEE" in probing_shell.execute("select 2")

    def test_select_bounds(self, probing_shell):
        probing_shell.execute("probe " + university.STUDENTS_LOVE_FREE)
        assert "choose between" in probing_shell.execute("select 9")

    def test_select_without_probe(self, shell):
        assert shell.execute("select 1") == "no probe to select from"

    def test_probe_success_prints_value(self, probing_shell):
        output = probing_shell.execute("probe (z, LOVES, OPERA)")
        assert output.splitlines()[0] == "Query succeeded."
        assert "ANNA" in output


class TestUpdatesAndRules:
    def test_add_and_remove(self, shell):
        assert shell.execute("add JOHN OWNS BICYCLE").startswith("added")
        assert shell.execute("ask (JOHN, OWNS, BICYCLE)") == "true"
        assert shell.execute("add JOHN OWNS BICYCLE") == "already present"
        assert shell.execute("remove JOHN OWNS BICYCLE") == "removed"
        assert shell.execute("remove JOHN OWNS BICYCLE") \
            == "no such stored fact"

    def test_quoted_entities(self, shell):
        shell.execute('add JOHN EARNS "$25,000"')
        assert Fact("JOHN", "EARNS", "$25,000") in shell.db.facts

    def test_include_exclude(self, shell):
        assert shell.execute("ask (JOHN, ∈, PERSON)") == "true"
        shell.execute("exclude mem-upward")
        assert shell.execute("ask (JOHN, ∈, PERSON)") == "false"
        shell.execute("include mem-upward")
        assert shell.execute("ask (JOHN, ∈, PERSON)") == "true"

    def test_unknown_rule_is_error_text(self, shell):
        assert shell.execute("exclude no-such-rule").startswith("error:")

    def test_limit_off(self, shell):
        assert shell.execute("limit off") == "composition unlimited"
        assert shell.db.composition_limit is None

    def test_limit_usage(self, shell):
        assert shell.execute("limit zero").startswith("usage:")

    def test_rules_listing(self, shell):
        output = shell.execute("rules")
        assert "[on ] gen-transitive" in output
        shell.execute("exclude gen-transitive")
        assert "[off] gen-transitive" in shell.execute("rules")

    def test_relation_command(self):
        from repro.datasets import paper

        shell = BrowserShell(paper.load())
        output = shell.execute(
            "relation EMPLOYEE WORKS-FOR:DEPARTMENT EARNS:SALARY")
        assert "JOHN" in output and "SHIPPING" in output

    def test_relation_bad_spec(self, shell):
        assert "bad column spec" in shell.execute("relation X NOPE")

    def test_stats(self, shell):
        output = shell.execute("stats")
        assert "base_facts:" in output

    def test_explain_command(self, shell):
        output = shell.execute(
            "explain (JOHN, LIKES, y) and (y, in, CAT)")
        assert "safety: ok" in output
        assert "initial conjunct order" in output

    def test_function_command_full_listing(self, shell):
        output = shell.execute("function FATHER-OF")
        assert "LEOPOLD -> MOZART" in output
        assert "single-valued" in output

    def test_function_command_single_entity(self, shell):
        output = shell.execute("function LIKES JOHN")
        assert "FELIX" in output
        assert shell.execute("function LIKES NOBODY") == "(no images)"

    def test_function_command_empty(self, shell):
        assert shell.execute("function NO-SUCH-REL") == "(empty function)"

    def test_why_command_on_traced_database(self):
        db = Database(trace=True)
        db.add("JOHN", "∈", "EMPLOYEE")
        db.add("EMPLOYEE", "EARNS", "SALARY")
        shell = BrowserShell(db)
        output = shell.execute("why JOHN EARNS SALARY")
        assert "[mem-source]" in output
        assert "[stored]" in output

    def test_why_command_without_trace_is_error_text(self, shell):
        shell.execute("add A NEWREL B")
        output = shell.execute("why A MISSING B")
        assert output.startswith("error:")

    def test_why_usage(self, shell):
        assert shell.execute("why A B").startswith("usage:")


class TestShellMechanics:
    def test_empty_line(self, shell):
        assert shell.execute("") == ""

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.execute("dance")

    def test_help_lists_commands(self, shell):
        output = shell.execute("help")
        assert "probe QUERY" in output

    def test_quit_sets_done(self, shell):
        assert shell.execute("quit") == "bye"
        assert shell.done

    def test_run_loop(self, music_db):
        stdin = io.StringIO("try MOZART\nquit\n")
        stdout = io.StringIO()
        BrowserShell(music_db).run(stdin=stdin, stdout=stdout)
        text = stdout.getvalue()
        assert "browser" in text
        assert "FATHER-OF" in text
        assert "bye" in text

    def test_run_loop_handles_eof(self, music_db):
        stdin = io.StringIO("try MOZART\n")  # no quit: EOF ends it
        stdout = io.StringIO()
        BrowserShell(music_db).run(stdin=stdin, stdout=stdout)
        assert "FATHER-OF" in stdout.getvalue()


class TestMain:
    def test_loads_dataset_by_name(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        assert main(["music"]) == 0

    def test_loads_durable_directory(self, tmp_path, monkeypatch):
        from repro.storage.session import open_database

        db, session = open_database(tmp_path / "d")
        db.add("A", "R", "B")
        session.close()
        monkeypatch.setattr("sys.stdin", io.StringIO("ask (A, R, B)\nquit\n"))
        monkeypatch.setattr("sys.stdout", io.StringIO())
        assert main([str(tmp_path / "d")]) == 0

    def test_usage_error(self):
        assert main(["a", "b"]) == 2

    def test_monitor_mode_renders_frames(self, capsys):
        from repro.db import Database
        from repro import obs
        from repro.serve import DatabaseService
        from repro.serve.net import ServiceClient, ServiceServer

        obs.enable_telemetry(fresh=True)
        db = Database()
        db.add("A", "R", "B")
        service = DatabaseService(db)
        server = ServiceServer(service, port=0)
        server.start()
        host, port = server.address
        try:
            with ServiceClient(host, port) as client:
                client.query("(x, R, y)")
            assert main(["monitor", f"{host}:{port}", "--count", "2",
                         "--interval", "0.05", "--no-clear"]) == 0
        finally:
            server.close()
            service.close()
            obs.disable_telemetry()
        output = capsys.readouterr().out
        assert "repro monitor" in output
        assert "frame 2" in output
        assert "query" in output
