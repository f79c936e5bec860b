"""What the plan cache (ISSUE 8, deleted by ISSUE 25) used to guard.

A plan now lives for one evaluation, so there is nothing to invalidate;
what stays here is every assertion about an *answer*, an error message
or a plan autopsy: the staleness property (the same text re-asked after
every kind of mutation equals a fresh database), the one parse memo,
the single-atom shapes through the one executor, and a seeded
randomized compiled-vs-reference run over single-atom queries.  The
file and its tests keep the names they had under the cache so their
ids stay stable.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ParseError, QueryError
from repro.core.facts import Fact
from repro.datasets import books
from repro.db import Database
from repro.obs import Telemetry, use_telemetry
from repro.query import CompiledEvaluator
from repro.query.evaluate import Evaluator
from repro.query import parser
from repro.rules.registry import RuleRegistry
from repro.serve import DatabaseService


def employee_world(cls=Database):
    database = cls()
    for index in range(12):
        database.add(f"EMP{index}", "∈", "EMPLOYEE")
        database.add(f"EMP{index}", "WORKS-FOR", f"DEPT{index % 3}")
        database.add(f"EMP{index}", "EARNS", f"${20000 + 1000 * index}")
    return database


@pytest.fixture
def employees():
    return employee_world()


# ----------------------------------------------------------------------
# Static errors
# ----------------------------------------------------------------------
class TestPlanCacheBasics:
    def test_unsafe_query_error_is_cached_and_identical(self, employees):
        """Asked twice, the message is the same, and the reference
        engine's."""
        text = "(x, ∈, EMPLOYEE) or (y, ∈, EMPLOYEE)"
        messages = []
        for _ in range(2):
            with pytest.raises(QueryError) as excinfo:
                employees.query(text)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        reference = Database(query_engine="reference")
        with pytest.raises(QueryError) as excinfo:
            reference.query(text)
        assert str(excinfo.value) == messages[0]

    def test_ask_non_proposition_error_matches_reference(self, employees):
        with pytest.raises(QueryError) as compiled_err:
            employees.ask("(x, ∈, EMPLOYEE)")
        reference = Database(query_engine="reference")
        reference.add("EMP0", "∈", "EMPLOYEE")
        with pytest.raises(QueryError) as reference_err:
            reference.ask("(x, ∈, EMPLOYEE)")
        assert str(compiled_err.value) == str(reference_err.value)


# ----------------------------------------------------------------------
# The parse memo: the one thing the query path keeps between calls
# ----------------------------------------------------------------------
class TestParseMemo:
    def test_a_repeated_text_is_parsed_once(self):
        text = "(x, ∈, PARSE-MEMO-REPEAT) and (x, EARNS, y)"
        first = parser.parse_query_memo(text)
        assert parser.parse_query_memo(text) is first
        assert first == parser.parse_query(text)
        # Keyed on the text as sent: another spelling is another entry
        # holding an equal query.
        respelled = parser.parse_query_memo(" " + text)
        assert respelled is not first and respelled == first

    def test_query_ask_and_probe_share_it(self, employees):
        text = "(EMP0, WORKS-FOR, DEPT1)"
        hits = parser._parse_remembered.cache_info().hits
        assert employees.query(text) == set()
        assert employees.ask(text) is False
        assert employees.probe(text).waves
        assert parser._parse_remembered.cache_info().hits >= hits + 2

    def test_parse_errors_are_raised_every_time(self):
        for _ in range(2):
            with pytest.raises(ParseError):
                parser.parse_query_memo("(x, ∈")

    def test_an_oversized_text_is_parsed_but_not_kept(self):
        text = "(x, ∈, EMPLOYEE)" + " " * parser.PARSE_MEMO_MAX_TEXT
        size = parser._parse_remembered.cache_info().currsize
        query = parser.parse_query_memo(text)
        assert query == parser.parse_query("(x, ∈, EMPLOYEE)")
        assert parser.parse_query_memo(text) is not query
        assert parser._parse_remembered.cache_info().currsize == size


# ----------------------------------------------------------------------
# Staleness: what the configuration epoch and data token used to guard
# ----------------------------------------------------------------------
def fresh_copy(database) -> Database:
    """A new database built from ``database``'s state — base heap,
    rules with their enabled flags, composition limit — that has never
    answered anything."""
    fresh = Database(database.facts, with_axioms=False)
    fresh.rules = RuleRegistry(database.rules.all_rules())
    fresh.rules.restore_state(database.rules.snapshot_state())
    fresh.limit(database.composition_limit)
    return fresh


class _Library(Database):
    """A bare ``Database`` under the names the service gives the calls
    the steps below make."""

    fold = Database.compact_store

    def remove(self, source, relationship, target):
        return self.remove_fact(Fact(source, relationship, target))

    def state(self):
        return self

    def close(self):
        pass


class _Served(DatabaseService):
    """A ``DatabaseService``: reads run on the published snapshot."""

    def state(self):
        return self.read_view()


STALENESS_TEXTS = (
    "(x, ∈, EMPLOYEE) and (x, EARNS, s)",
    "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, d) and (d, LOCATED-IN, c)",
    "(x, EARNED-BY, y)",
    "(EMP0, r, CITY0)",
    "exists s: (EMP99, EARNS, s)",
    "(EMP0, EARNS, $20000)",
)

STALENESS_STEPS = (
    ("add", lambda t: (t.add("EMP99", "∈", "EMPLOYEE"),
                       t.add("EMP99", "EARNS", "$99000"),
                       t.add("DEPT0", "LOCATED-IN", "CITY0"))),
    ("remove", lambda t: t.remove("EMP0", "EARNS", "$20000")),
    ("define_rule", lambda t: t.define_rule(
        "earned-by", "(a, EARNS, b) => (b, EARNED-BY, a)")),
    ("exclude", lambda t: t.exclude("earned-by")),
    ("include", lambda t: t.include("earned-by")),
    ("limit", lambda t: t.limit(2)),
    ("compact_store", lambda t: t.fold()),
    ("add after the fold", lambda t: t.add("EMP0", "EARNS", "$1")),
)


@pytest.mark.parametrize("target", ["hash", "interned", "service"])
def test_a_reasked_text_is_never_stale(target):
    """The same texts, re-asked after ``add`` / ``remove`` /
    ``define_rule`` / ``exclude`` / ``include`` / ``limit`` /
    ``compact_store``, answer as a fresh ``Database`` built from the
    same state does — on the hash store, on interned storage, and on
    the snapshots a ``DatabaseService`` publishes."""
    if target == "service":
        subject = _Served(employee_world())
    else:
        subject = employee_world(_Library)
        if target == "interned":
            subject.compact_store()
    try:
        seen = {text: set() for text in STALENESS_TEXTS}

        def check(step):
            fresh = fresh_copy(subject.state())
            for text in STALENESS_TEXTS:
                answer = subject.query(text)
                assert answer == fresh.query(text), (target, step, text)
                seen[text].add(frozenset(answer))
            assert subject.ask(STALENESS_TEXTS[-1]) \
                == fresh.ask(STALENESS_TEXTS[-1]), (target, step)

        check("start")
        for step, apply in STALENESS_STEPS:
            apply(subject)
            check(step)
    finally:
        subject.close()
    # Not vacuous: every text's answer moved at least once on the way.
    assert all(len(answers) > 1 for answers in seen.values()), seen


class TestInvalidation:
    def test_empty_hint_does_not_survive_mutation(self):
        """A plan lowered when a template provably matched nothing must
        not short-circuit after facts arrive."""
        database = Database()
        database.add("EMP0", "∈", "EMPLOYEE")
        query = "(x, ∈, EMPLOYEE) and (x, EARNS, s)"
        assert database.query(query) == set()
        database.add("EMP0", "EARNS", "$1")
        assert database.query(query) == {("EMP0", "$1")}

    def test_fast_path_sees_rule_derived_facts(self):
        database = Database()
        database.add("A", "REL", "B")
        text = "(x, REL2, y)"
        assert database.query(text) == set()
        database.define_rule("lift", "(a, REL, b) => (a, REL2, b)")
        assert database.query(text) == {("A", "B")}
        database.exclude("lift")
        assert database.query(text) == set()

    def test_interned_overlay_and_tombstones_through_fast_path(
            self, employees):
        employees.compact_store()
        assert employees.ask("(EMP0, ∈, EMPLOYEE)")
        employees.remove_fact(Fact("EMP0", "∈", "EMPLOYEE"))
        assert not employees.ask("(EMP0, ∈, EMPLOYEE)")
        employees.add("EMPX", "∈", "EMPLOYEE")
        assert employees.ask("(EMPX, ∈, EMPLOYEE)")
        names = employees.query("(x, ∈, EMPLOYEE)")
        assert ("EMPX",) in names and ("EMP0",) not in names


# ----------------------------------------------------------------------
# Single-atom plans: compiled ↔ reference equivalence
# ----------------------------------------------------------------------
def _single_atom_queries(rng, entities, relationships, count=14):
    """Texts biased toward the single-atom shapes: ground, half-ground,
    and repeated-variable atoms (plus the odd unsafe spelling)."""
    queries = []
    variables = ("x", "y")
    for _ in range(count):
        roll = rng.random()
        source = (rng.choice(entities) if rng.random() < 0.5
                  else rng.choice(variables))
        relationship = (rng.choice(relationships) if roll < 0.8
                        else rng.choice(variables))
        if rng.random() < 0.2:
            target = source        # repeated variable or ground match
        else:
            target = (rng.choice(entities) if rng.random() < 0.5
                      else rng.choice(variables))
        queries.append(f"({source}, {relationship}, {target})")
    return queries


def _outcome(callable_, *args):
    try:
        return ("value", callable_(*args))
    except QueryError as error:
        return ("QueryError", str(error))


@pytest.mark.parametrize("seed", range(12))
def test_fast_path_equivalence(seed):
    """12-seed randomized run over single-atom queries (the shapes a
    dedicated fast path used to absorb; they now run the one executor):
    answers, verdicts and QueryError messages of the compiled engine
    equal the reference engine's over the hash store, the interned
    store, and an interned store with overlay facts and tombstones,
    asked once and again."""
    rng = random.Random(f"fastpath-{seed}")
    database = books.load()
    view = database.view()
    entities = sorted({c for fact in view.store
                       for c in (fact.source, fact.target)})
    relationships = sorted({fact.relationship for fact in view.store})
    queries = _single_atom_queries(rng, entities, relationships)

    def churn(db):
        """The same seeded adds + removes, applied to each churned
        database (base facts sorted: set order is not stable).  The
        closure is built before each one, so on an interned store each
        is maintained into the closure's overlay (a closure built from
        scratch — after an ``(r, ∈, R_c)`` declaration — is one
        generation)."""
        churn_rng = random.Random(f"fastpath-churn-{seed}")
        base = sorted(db.facts, key=tuple)
        for fact in churn_rng.sample(base, 3):
            db.view()
            db.remove_fact(fact)
        for _ in range(3):
            db.view()
            db.add(churn_rng.choice(entities),
                   churn_rng.choice(relationships),
                   churn_rng.choice(entities))
        return db

    reference_db = churn(books.load())
    overlay_db = churn(books.load().compact_store())
    assert len(overlay_db.view().store._overlay)
    cases = [
        (Evaluator(view), view),
        (Evaluator(view), books.load().compact_store().view()),
        (Evaluator(reference_db.view()), overlay_db.view()),
    ]
    for reference, probe_view in cases:
        compiled = CompiledEvaluator(probe_view)
        for text in queries + queries:
            expected = _outcome(reference.evaluate, text)
            assert _outcome(compiled.evaluate, text) == expected, \
                (seed, text)
            assert _outcome(compiled.succeeds, text) \
                == _outcome(reference.succeeds, text), (seed, text)


def test_fast_path_slowlog_autopsy(employees):
    """The service's slow-query log sees a single-atom read as a
    one-operator ``atom-join`` plan — the same executor as any join."""
    from repro.obs import LAST_REQUEST
    from repro.obs.slowlog import plan_summary

    LAST_REQUEST.clear()
    with use_telemetry(Telemetry()):
        employees.query("(EMP0, r, t)")
    summary = plan_summary(LAST_REQUEST.run)
    assert summary is not None
    assert [row["op"] for row in summary["operators"]] == ["atom-join"]
    assert summary["operators"][0]["out_rows"] == 3


def test_virtual_relations_through_fast_path(employees):
    """Single-atom queries over virtual relationships (≠, comparators)
    see the computed facts, as the reference engine does."""
    assert employees.ask("(EMP0, ≠, EMP1)")
    assert not employees.ask("(EMP0, ≠, EMP0)")
    reference = Evaluator(employees.view())
    text = "(EMP0, ≠, EMP1)"
    assert employees.succeeds(text) == reference.succeeds(text)


# ----------------------------------------------------------------------
# Verdicts are computed, not remembered (the class is named for the
# memo these once guarded against)
# ----------------------------------------------------------------------
class TestVerdictMemo:
    def test_mutation_moves_the_token(self, employees):
        assert employees.ask("(GHOST, ∈, EMPLOYEE)") is False
        employees.add("GHOST", "∈", "EMPLOYEE")
        assert employees.ask("(GHOST, ∈, EMPLOYEE)") is True

    def test_errors_are_never_memoized(self, employees):
        for _ in range(2):
            with pytest.raises(QueryError):
                employees.ask("(x, ∈, EMPLOYEE)")  # not a proposition
