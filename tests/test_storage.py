"""Storage substrate tests: journal, snapshot, durable sessions,
crash-recovery behaviors."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.core.facts import Fact
from repro.datasets import paper
from repro.db import Database
from repro.storage.journal import OP_ADD, OP_REMOVE, Journal, JournalEntry
from repro.storage.session import DurableSession, open_database
from repro.storage.snapshot import (
    SnapshotState,
    read_snapshot,
    write_snapshot,
)


class TestJournalEntry:
    def test_roundtrip(self):
        entry = JournalEntry(OP_ADD, Fact("A", "R", "B"))
        assert JournalEntry.from_json(entry.to_json()) == entry

    def test_unicode_entities(self):
        entry = JournalEntry(OP_ADD, Fact("A", "≺", "Δ"))
        assert JournalEntry.from_json(entry.to_json()) == entry

    def test_malformed_json(self):
        with pytest.raises(StorageError):
            JournalEntry.from_json("{not json")

    def test_unknown_op(self):
        with pytest.raises(StorageError):
            JournalEntry.from_json(
                json.dumps({"op": "explode", "fact": ["A", "R", "B"]}))

    def test_bad_fact_shape(self):
        with pytest.raises(StorageError):
            JournalEntry.from_json(
                json.dumps({"op": "add", "fact": ["A", "R"]}))
        with pytest.raises(StorageError):
            JournalEntry.from_json(
                json.dumps({"op": "add", "fact": ["A", "R", 3]}))


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(OP_ADD, Fact("A", "R", "B"))
        journal.append(OP_REMOVE, Fact("A", "R", "B"))
        journal.close()
        entries = list(journal.entries())
        assert entries == [
            JournalEntry(OP_ADD, Fact("A", "R", "B")),
            JournalEntry(OP_REMOVE, Fact("A", "R", "B")),
        ]
        assert len(journal) == 2

    def test_missing_file_is_empty(self, tmp_path):
        journal = Journal(tmp_path / "nothing.jsonl")
        assert list(journal.entries()) == []

    def test_torn_final_line_tolerated_when_lenient(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(OP_ADD, Fact("A", "R", "B"))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "add", "fact": ["A"')  # torn write
        assert len(list(journal.entries(strict=False))) == 1
        with pytest.raises(StorageError):
            list(journal.entries(strict=True))

    def test_interior_corruption_always_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage\n")
            handle.write(
                json.dumps({"op": "add", "fact": ["A", "R", "B"]}) + "\n")
        journal = Journal(path)
        with pytest.raises(StorageError):
            list(journal.entries(strict=False))

    def test_truncate(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(OP_ADD, Fact("A", "R", "B"))
        journal.truncate()
        assert list(journal.entries()) == []

    def test_invalid_op_rejected_on_write(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(StorageError):
            journal.append("explode", Fact("A", "R", "B"))


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        state = SnapshotState(
            facts=[Fact("A", "R", "B"), Fact("C", "≺", "D")],
            rule_states={"gen-transitive": False},
            composition_limit=3,
        )
        path = tmp_path / "snap.json"
        write_snapshot(path, state)
        loaded = read_snapshot(path)
        assert set(loaded.facts) == set(state.facts)
        assert loaded.rule_states == {"gen-transitive": False}
        assert loaded.composition_limit == 3

    def test_unlimited_composition_roundtrips(self, tmp_path):
        state = SnapshotState(facts=[], composition_limit=None)
        write_snapshot(tmp_path / "s.json", state)
        assert read_snapshot(tmp_path / "s.json").composition_limit is None

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(StorageError):
            read_snapshot(tmp_path / "none.json")

    def test_bad_version(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 99, "facts": []}))
        with pytest.raises(StorageError):
            read_snapshot(path)

    def test_malformed_fact(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "facts": [["A"]]}))
        with pytest.raises(StorageError):
            read_snapshot(path)

    @pytest.mark.parametrize("limit", [True, False, 0, -2, 2.0, "2"])
    def test_a_limit_below_one_or_not_an_int_is_refused(self, tmp_path,
                                                         limit):
        """``limit(n)`` takes an int of at least 1, or ``None``:
        recovery refuses anything else with a typed error, not a
        database at ``limit=True`` or a ``ValueError``."""
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / "snapshot.json").write_text(json.dumps(
            {"version": 1, "facts": [], "composition_limit": limit}))
        with pytest.raises(StorageError,
                           match="malformed composition_limit"):
            read_snapshot(directory / "snapshot.json")
        with pytest.raises(StorageError,
                           match="malformed composition_limit"):
            open_database(directory)

    def test_write_is_atomic_replace(self, tmp_path):
        path = tmp_path / "s.json"
        write_snapshot(path, SnapshotState(facts=[Fact("A", "R", "B")]))
        write_snapshot(path, SnapshotState(facts=[Fact("C", "R", "D")]))
        assert read_snapshot(path).facts == [Fact("C", "R", "D")]
        assert not path.with_suffix(".json.tmp").exists()


# ----------------------------------------------------------------------
# The snapshot codec against the layout and reader earlier releases had
# ----------------------------------------------------------------------
FIXTURE = Path(__file__).parent / "fixtures" / "durable_pr18"


def indented_layout(state: SnapshotState) -> str:
    """The snapshot text earlier releases wrote: one fact component per
    line, facts sorted as lists."""
    return json.dumps(
        {
            "version": 1,
            "composition_limit": state.composition_limit,
            "rule_states": state.rule_states,
            "facts": sorted(list(f) for f in state.facts),
        },
        ensure_ascii=False, indent=0)


def row_loop_reader(text: str):
    """The reader earlier releases had: ``json.loads`` plus a loop that
    checks each row."""
    record = json.loads(text)
    facts = []
    for raw in record.get("facts", []):
        if (not isinstance(raw, list) or len(raw) != 3
                or not all(isinstance(c, str) for c in raw)):
            raise StorageError(f"malformed fact in snapshot: {raw!r}")
        facts.append(Fact(*raw))
    return SnapshotState(facts=facts,
                         rule_states=record.get("rule_states", {}),
                         composition_limit=record.get("composition_limit", 1))


def paper_state() -> SnapshotState:
    db = paper.load()
    db.add("ZOË", "∈", "EMPLOYEE")                # non-ASCII, unescaped
    db.add('QUOTE"D', "LIKES", "BACK\\SLASH")       # escaped in JSON
    db.exclude("gen-transitive")
    db.limit(3)
    return SnapshotState(facts=list(db.facts),
                         rule_states=db.rules.snapshot_state(),
                         composition_limit=db.composition_limit)


entities = st.text(alphabet=st.characters(min_codepoint=1,
                                          max_codepoint=0x2400),
                   max_size=6)


class TestSnapshotCodec:
    def test_parses_to_the_indented_layouts_object(self):
        state = paper_state()
        text = state.to_json()
        assert json.loads(text) == json.loads(indented_layout(state))
        assert "\n" not in text                    # one line

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(entities, entities, entities), max_size=30),
           st.sampled_from([None, 1, 2, 7]))
    def test_any_heap_encodes_like_the_indented_layout(self, rows, limit):
        state = SnapshotState(facts=[Fact(*row) for row in rows],
                              rule_states={"r": True, "s": False},
                              composition_limit=limit)
        text = state.to_json()
        assert json.loads(text) == json.loads(indented_layout(state))
        loaded = SnapshotState.from_json(text)
        assert loaded.facts == sorted(state.facts)
        assert all(type(f) is Fact for f in loaded.facts)
        assert (loaded.rule_states, loaded.composition_limit) \
            == (state.rule_states, limit)

    def test_an_indented_snapshot_reads(self, tmp_path):
        state = paper_state()
        path = tmp_path / "snapshot.json"
        path.write_text(indented_layout(state), encoding="utf-8")
        assert read_snapshot(path) == SnapshotState(
            facts=sorted(state.facts), rule_states=state.rule_states,
            composition_limit=3)

    def test_the_earlier_reader_opens_a_new_checkpoint(self, tmp_path):
        db, session = open_database(tmp_path / "d")
        db.add("ZOË", "∈", "EMPLOYEE")
        db.limit(2)
        session.checkpoint()
        session.close()
        text = (tmp_path / "d" / "snapshot.json").read_text(encoding="utf-8")
        old = row_loop_reader(text)
        assert set(old.facts) == set(db.facts)
        assert old.rule_states == db.rules.snapshot_state()
        assert old.composition_limit == 2
        assert old == read_snapshot(tmp_path / "d" / "snapshot.json")

    def test_the_fixture_directorys_snapshot_reads(self):
        path = FIXTURE / "snapshot.json"
        assert read_snapshot(path) == row_loop_reader(
            path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("rows, named", [
        ([["A", "R", "B"], "oops"], "'oops'"),                # not a list
        ([["A", "R", "B"], {"s": "A"}], "{'s': 'A'}"),
        ([["A", "R"]], "['A', 'R']"),                         # length ≠ 3
        ([["A", "R", "B", "C"]], "['A', 'R', 'B', 'C']"),
        ([["A", "R", 3]], "['A', 'R', 3]"),                   # non-str
        ([["A", ["R"], "B"]], "['A', ['R'], 'B']"),
        ([["A", "R", "B"], ["C", "R", "D"], ["E", None, "F"]],
         "['E', None, 'F']"),                                 # after good
        ([["A", "R", "B"], [1, 2, 3], ["X"]], "[1, 2, 3]"),   # first bad
        ({"A": "R"}, "'A'"),                                  # not rows
    ])
    def test_a_malformed_row_is_named_as_before(self, tmp_path, rows,
                                                named):
        text = json.dumps({"version": 1, "facts": rows})
        with pytest.raises(StorageError) as before:
            row_loop_reader(text)
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(StorageError) as now:
            read_snapshot(path)
        assert str(now.value) == str(before.value) \
            == f"malformed fact in snapshot: {named}"


class TestDurableSession:
    def test_open_empty_creates_database(self, tmp_path):
        db, session = open_database(tmp_path / "d")
        assert len(db) > 0  # axioms
        session.close()

    def test_mutations_journal_and_recover(self, tmp_path):
        db, session = open_database(tmp_path / "d")
        db.add("JOHN", "LIKES", "FELIX")
        db.add("JOHN", "LIKES", "MARY")
        db.remove_fact(Fact("JOHN", "LIKES", "MARY"))
        session.close()

        recovered, session2 = open_database(tmp_path / "d")
        assert Fact("JOHN", "LIKES", "FELIX") in recovered.facts
        assert Fact("JOHN", "LIKES", "MARY") not in recovered.facts
        session2.close()

    def test_checkpoint_compacts_journal(self, tmp_path):
        db, session = open_database(tmp_path / "d")
        db.add("A", "R", "B")
        session.checkpoint()
        assert len(session.journal) == 0
        db.add("C", "R", "D")
        session.close()
        recovered, session2 = open_database(tmp_path / "d")
        assert Fact("A", "R", "B") in recovered.facts
        assert Fact("C", "R", "D") in recovered.facts
        session2.close()

    def test_rule_state_and_limit_survive_checkpoint(self, tmp_path):
        db, session = open_database(tmp_path / "d")
        db.exclude("gen-transitive")
        db.limit(3)
        session.checkpoint()
        session.close()
        recovered, session2 = open_database(tmp_path / "d")
        assert not recovered.rules.is_enabled("gen-transitive")
        assert recovered.composition_limit == 3
        session2.close()

    def test_duplicate_adds_not_journaled(self, tmp_path):
        db, session = open_database(tmp_path / "d")
        db.add("A", "R", "B")
        db.add("A", "R", "B")
        assert len(session.journal) == 1
        session.close()

    def test_detach_stops_journaling(self, tmp_path):
        db, session = open_database(tmp_path / "d")
        session.detach()
        db.add("A", "R", "B")
        assert len(session.journal) == 0
        session.close()

    def test_checkpoint_without_attach_raises(self, tmp_path):
        session = DurableSession(tmp_path / "d")
        with pytest.raises(RuntimeError):
            session.checkpoint()

    def test_recovered_database_queries(self, tmp_path):
        db, session = open_database(tmp_path / "d")
        db.add("JOHN", "∈", "EMPLOYEE")
        db.add("EMPLOYEE", "EARNS", "SALARY")
        session.close()
        recovered, session2 = open_database(tmp_path / "d")
        assert recovered.query("(JOHN, EARNS, y)") == {("SALARY",)}
        session2.close()

    def test_context_manager(self, tmp_path):
        with DurableSession(tmp_path / "d") as session:
            db = session.recover()
            session.attach(db)
            db.add("A", "R", "B")
        recovered, session2 = open_database(tmp_path / "d")
        assert Fact("A", "R", "B") in recovered.facts
        session2.close()

    def test_a_rule_defined_through_a_service_survives_a_restart(
            self, tmp_path):
        from repro.serve import DatabaseService

        db, session = open_database(tmp_path / "d")
        service = DatabaseService(db, session=session)
        try:
            service.define_rule(
                "sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
            service.define_rule("age-positive",
                                "(x, in, AGE) => (x, >, 0)",
                                is_constraint=True)
            service.exclude("age-positive")
            service.add("ANN", "MARRIED-TO", "BOB")
            service.checkpoint()
        finally:
            service.close()
        reopened, session = open_database(tmp_path / "d")
        try:
            assert reopened.ask("(BOB, MARRIED-TO, ANN)")
            assert reopened.rules.is_enabled("sym")
            constraint = reopened.rules.get("age-positive")
            assert constraint.is_constraint
            assert not reopened.rules.is_enabled("age-positive")
        finally:
            session.close()
