"""Recovery builds the base heap once, as one interned generation.

``open_database`` loads the snapshot's rows straight into a generation,
replays the journal into its overlay and tombstones and folds what the
replay left; the closure computed from that base comes back folded too
(``Database.standard_closure``).  For any snapshot plus journal — adds,
removes of snapshot facts (tombstones), re-adds of tombstoned facts,
add-then-remove pairs, rules defined from text with their enable map,
and a torn final line — the recovered database must equal a replay
built on the hash store: base facts, standard closure, rule firings and
the derivation of one derived fact.  After ``view()`` the base and the
closure are each one generation with an empty overlay.  The
``tests/fixtures/durable_pr18/`` directory is held to the same.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.entities import ISA, MEMBER
from repro.core.facts import Fact
from repro.core.interned import InternedFactStore
from repro.db import AXIOM_FACTS, Database
from repro.storage.journal import OP_ADD, OP_REMOVE, Journal
from repro.storage.session import (
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    open_database,
)
from repro.storage.snapshot import SnapshotState, read_snapshot, write_snapshot

FIXTURE = Path(__file__).parent / "fixtures" / "durable_pr18"

NAMES = ["A", "B", "C", "D"]
RELATIONSHIPS = ["R", "LIKES", MEMBER, ISA]
#: One derivation no generated fact can compete with: ``mem-upward``
#: from the two facts below, which no journal move touches.
ANCHOR = [Fact("ZED", MEMBER, "KLASS"), Fact("KLASS", ISA, "TOP")]
DERIVED = Fact("ZED", MEMBER, "TOP")
TEXT_RULES = [
    ("likes-symmetry", "(a, LIKES, b) => (b, LIKES, a)"),
    ("r-to-likes", "(a, R, b) => (a, LIKES, b)"),
]

_facts = st.builds(Fact, st.sampled_from(NAMES),
                   st.sampled_from(RELATIONSHIPS), st.sampled_from(NAMES))


@st.composite
def _directories(draw):
    """A snapshot state and the journal written after it."""
    snapshot = draw(st.lists(_facts, max_size=12, unique=True))
    rules = [(name, text, False) for name, text in TEXT_RULES
             if draw(st.booleans())]
    rule_states = {name: draw(st.booleans()) for name, _, _ in rules}
    if draw(st.booleans()):
        rule_states["mem-source"] = draw(st.booleans())
    journal = []
    removed = []
    for _ in range(draw(st.integers(0, 12))):
        move = draw(st.sampled_from(
            ["add", "remove", "readd", "add-then-remove"]))
        if move == "add":
            journal.append((OP_ADD, draw(_facts)))
        elif move == "remove" and snapshot:
            fact = draw(st.sampled_from(snapshot))
            journal.append((OP_REMOVE, fact))
            removed.append(fact)
        elif move == "readd" and removed:
            journal.append((OP_ADD, draw(st.sampled_from(removed))))
        elif move == "add-then-remove":
            fact = draw(_facts)
            journal += [(OP_ADD, fact), (OP_REMOVE, fact)]
    torn = draw(st.booleans())
    return snapshot + ANCHOR, rules, rule_states, journal, torn


def _write(directory: Path, facts, rules, rule_states, journal,
           torn: bool) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_snapshot(directory / SNAPSHOT_NAME, SnapshotState(
        facts=facts, rule_states=rule_states, rules=rules))
    log = Journal(directory / JOURNAL_NAME)
    for op, fact in journal:
        log.append(op, fact)
    log.close()
    if torn:
        with open(directory / JOURNAL_NAME, "a", encoding="utf-8") as out:
            out.write('{"op": "add", "fact": ["A", "R"')


def _hash_replay(directory: Path) -> Database:
    """What recovery meant before it built generations: the snapshot
    added fact by fact onto an empty database, then the journal's
    complete lines replayed onto it — independently of recovery's bulk
    build."""
    state = read_snapshot(directory / SNAPSHOT_NAME)
    database = Database(with_axioms=False, trace=True)
    for name, text, is_constraint in state.rules:
        database.define_rule(name, text, is_constraint=is_constraint)
    database.rules.restore_state(state.rule_states)
    database.composition_limit = state.composition_limit
    database.add_facts(state.facts)
    for entry in Journal(directory / JOURNAL_NAME).entries(strict=False):
        if entry.op == OP_ADD:
            database.add_fact(entry.fact)
        else:
            database.remove_fact(entry.fact)
    return database


def _assert_recovers_the_replay(directory: Path, derived: Fact) -> None:
    expected = _hash_replay(directory)
    database, session = open_database(directory)
    try:
        database.trace = True
        database.view()
        base = database.facts
        closure = database.standard_closure()
        for store in (base, closure.store, database.closure().store):
            assert isinstance(store, InternedFactStore)
            assert store.overlay_size == 0
        assert set(base) == set(expected.facts)
        assert len(base) == len(expected.facts)
        wanted = expected.standard_closure()
        assert set(closure.store) == set(wanted.store)
        assert closure.rule_firings == wanted.rule_firings
        assert closure.iterations == wanted.iterations
        assert database.rules.enabled_names() \
            == expected.rules.enabled_names()
        assert database.why(derived) == expected.why(derived)
    finally:
        session.close()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(world=_directories())
def test_recovery_equals_a_hash_replay(tmp_path_factory, world):
    directory = tmp_path_factory.mktemp("durable")
    _write(directory, *world)
    _assert_recovers_the_replay(directory, DERIVED)


def test_the_pr18_fixture_recovers_as_its_hash_replay(tmp_path):
    directory = tmp_path / "durable"
    shutil.copytree(FIXTURE, directory)
    _assert_recovers_the_replay(directory,
                                Fact("EMP0", MEMBER, "PERSON"))


def test_recovery_without_a_snapshot_is_one_generation_too(tmp_path):
    log = Journal(tmp_path / JOURNAL_NAME)
    log.append(OP_ADD, Fact("EMP0", MEMBER, "EMPLOYEE"))
    log.append(OP_ADD, Fact("EMPLOYEE", ISA, "PERSON"))
    log.close()
    database, session = open_database(tmp_path)
    try:
        assert isinstance(database.facts, InternedFactStore)
        assert database.overlay_size == 0
        assert set(database.facts) == set(AXIOM_FACTS) | {
            Fact("EMP0", MEMBER, "EMPLOYEE"), Fact("EMPLOYEE", ISA, "PERSON")}
        assert Fact("EMP0", MEMBER, "PERSON") in database
    finally:
        session.close()
