"""Plan cache (ISSUE 8) and the single-atom shapes it serves.

Covers canonical-text keying, the shape classifier, parse/compile
caching shared across ``query``/``ask``/``succeeds``, the invalidation
matrix (store version bump → recompile, rule/view redefinition → new
epoch entries, interned-store compaction → cached plan re-annotated),
a seeded randomized compiled-vs-reference run over single-atom
queries, and verdict caching in the versioned result cache.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import QueryError
from repro.core.facts import Fact, Variable
from repro.datasets import books
from repro.db import Database
from repro.obs import Telemetry, use_telemetry
from repro.query import CompiledEvaluator, Evaluator, parse_query
from repro.query import exec as qexec
from repro.query.canonical import canonical_text
from repro.query.compile import compile_query
from repro.query.plancache import PlanCache, classify


@pytest.fixture
def employees():
    database = Database()
    for index in range(12):
        database.add(f"EMP{index}", "∈", "EMPLOYEE")
        database.add(f"EMP{index}", "WORKS-FOR", f"DEPT{index % 3}")
        database.add(f"EMP{index}", "EARNS", f"${20000 + 1000 * index}")
    return database


# ----------------------------------------------------------------------
# canonical_text
# ----------------------------------------------------------------------
class TestCanonicalText:
    def test_collapses_insignificant_whitespace(self):
        assert canonical_text("  (x,  ∈,\tBOOK) \n") == "(x, ∈, BOOK)"

    def test_identical_spellings_share_a_key(self):
        assert canonical_text("(x, ∈, BOOK)") \
            == canonical_text("(x,   ∈,   BOOK)")

    def test_quoted_text_is_only_stripped(self):
        # Whitespace inside a quoted entity is significant content.
        assert canonical_text(' (x, ∈, "A  B") ') == '(x, ∈, "A  B")'
        assert canonical_text("(x, ∈, 'A  B')") == "(x, ∈, 'A  B')"

    def test_canonicalization_preserves_parse(self):
        for text in ("( x , ∈ , BOOK )", '(x, ∈, "A  B")',
                     "exists y:  (x, CITES, y)   and (x, ∈, BOOK)"):
            assert str(parse_query(canonical_text(text))) \
                == str(parse_query(text))


# ----------------------------------------------------------------------
# Shape classifier
# ----------------------------------------------------------------------
class TestClassify:
    def _plan(self, db, text):
        return compile_query(parse_query(text), db.view())

    def test_shapes(self, employees):
        cases = {
            "(EMP0, ∈, EMPLOYEE)": "point",
            "(EMP0, r, t)": "star",
            "(x, ∈, EMPLOYEE)": "star",
            "(x, r, t)": "scan",
            "(x, ∈, EMPLOYEE) and (x, EARNS, s)": "join",
            "exists y: (x, ∈, EMPLOYEE) and (x, EARNS, y)": "complex",
            "(x, ∈, EMPLOYEE) or (x, ∈, DEPT0)": "complex",
        }
        for text, expected in cases.items():
            assert classify(self._plan(employees, text)) == expected, text


# ----------------------------------------------------------------------
# Cache behavior
# ----------------------------------------------------------------------
class TestPlanCacheBasics:
    def test_repeated_text_hits(self, employees):
        stats0 = employees.stats()["plan_cache"]
        employees.query("(x, ∈, EMPLOYEE)")
        employees.query("(x,   ∈,  EMPLOYEE)")
        employees.query(" (x, ∈, EMPLOYEE) ")
        stats = employees.stats()["plan_cache"]
        assert stats["misses"] - stats0["misses"] == 1
        assert stats["hits"] - stats0["hits"] == 2
        assert stats["entries"] == 1

    def test_query_ask_succeeds_share_entries(self, employees):
        """The satellite fix: ``ask``/``succeeds`` reuse the plan the
        first ``query`` compiled — zero further parse/compile work."""
        employees.query("(EMP0, ∈, EMPLOYEE)")
        before = employees.stats()["plan_cache"]
        assert employees.ask("(EMP0, ∈, EMPLOYEE)")
        assert employees.succeeds("(EMP0, ∈, EMPLOYEE)")
        after = employees.stats()["plan_cache"]
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] == 2
        assert after["entries"] == before["entries"]

    def test_repeated_ask_does_zero_parse_and_compile_work(self,
                                                           employees):
        """Regression for the ISSUE satellite: N repeated ``ask`` calls
        cost one parse + compile; repeats are plan-cache hits answered
        from the result cache."""
        text = "(EMP3, WORKS-FOR, DEPT0)"
        base = employees.stats()["plan_cache"]
        for _ in range(10):
            assert employees.ask(text) is True
        stats = employees.stats()["plan_cache"]
        assert stats["misses"] - base["misses"] == 1
        assert stats["hits"] - base["hits"] == 9
        assert stats["recompiles"] == base["recompiles"]

    def test_probe_text_is_parsed_once_and_uncounted(self, employees,
                                                    monkeypatch):
        """``probe(text)`` goes through the parse memo — one parse per
        spelling, across version bumps — and the lookup itself moves
        neither ``hits`` nor ``misses``: text and the parsed query
        leave the same counters behind."""
        from repro.query import plancache

        parses = []
        real_parse = plancache.parse_query

        def counting(text):
            parses.append(text)
            return real_parse(text)

        monkeypatch.setattr(plancache, "parse_query", counting)
        text = "(EMP0, WORKS-FOR, DEPT1)"
        menu = employees.probe(text)
        assert not menu.succeeded and menu.waves
        employees.add("EMP99", "∈", "EMPLOYEE")    # every cache misses
        assert employees.probe(" " + text).waves
        assert parses == [text]

        def counters_after(query):
            database = Database()
            database.add("EMP0", "WORKS-FOR", "DEPT0")
            database.add("DEPT1", "∈", "DEPARTMENT")
            database.probe(query)
            stats = database.stats()["plan_cache"]
            return stats["hits"], stats["misses"]

        assert counters_after(text) == counters_after(real_parse(text))

    def test_obs_counters_emitted(self, employees):
        with use_telemetry(Telemetry()) as telemetry:
            employees.ask("(EMP0, ∈, EMPLOYEE)")
            employees.ask("(EMP0, ∈, EMPLOYEE)")
        assert telemetry.counters.get("plancache.misses", 0) >= 1
        assert telemetry.counters.get("plancache.hits", 0) >= 1

    def test_unsafe_query_error_is_cached_and_identical(self, employees):
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

    def test_lru_eviction_bounds_entries(self, employees):
        cache = PlanCache(maxsize=4)
        view = employees.view()
        for index in range(8):
            cache.entry(f"(EMP{index}, ∈, EMPLOYEE)", view, 0, 1)
        assert len(cache) == 4
        assert cache.stats()["entries"] == 4

    def test_clear_drops_entries_keeps_stats(self, employees):
        cache = PlanCache()
        cache.entry("(x, ∈, EMPLOYEE)", employees.view(), 0, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1

    def test_parsed_memo(self):
        cache = PlanCache()
        key1, query1 = cache.parsed("(x, ∈, BOOK)")
        key2, query2 = cache.parsed("(x,  ∈,  BOOK)")
        assert key1 == key2
        assert query1 is query2
        assert cache.hits == 1 and cache.misses == 1

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_snapshot_shares_the_plan_cache(self, employees):
        employees.query("(x, ∈, EMPLOYEE)")
        snapshot = employees.snapshot()
        before = employees.stats()["plan_cache"]
        assert snapshot.query("(x, ∈, EMPLOYEE)") \
            == employees.query("(x, ∈, EMPLOYEE)")
        after = employees.stats()["plan_cache"]
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]


# ----------------------------------------------------------------------
# Invalidation matrix
# ----------------------------------------------------------------------
class TestInvalidation:
    JOIN = "(x, ∈, EMPLOYEE) and (x, EARNS, s)"

    def test_store_version_bump_forces_recompile(self, employees):
        employees.query(self.JOIN)
        before = employees.stats()["plan_cache"]
        employees.add("EMP99", "∈", "EMPLOYEE")
        employees.add("EMP99", "EARNS", "$99000")
        result = employees.query(self.JOIN)
        assert ("EMP99", "$99000") in result
        after = employees.stats()["plan_cache"]
        assert after["recompiles"] == before["recompiles"] + 1
        # The refreshed plan is cached: a further repeat recompiles
        # nothing.
        employees.query(self.JOIN)
        assert employees.stats()["plan_cache"]["recompiles"] \
            == after["recompiles"]

    def test_empty_hint_does_not_survive_mutation(self):
        """The reason recompilation exists: a plan lowered when a
        template provably matched nothing must not short-circuit after
        facts arrive."""
        database = Database()
        database.add("EMP0", "∈", "EMPLOYEE")
        query = "(x, ∈, EMPLOYEE) and (x, EARNS, s)"
        assert database.query(query) == set()
        database.add("EMP0", "EARNS", "$1")
        assert database.query(query) == {("EMP0", "$1")}

    def test_rule_redefinition_compiles_a_fresh_entry(self, employees):
        employees.query(self.JOIN)
        before = employees.stats()["plan_cache"]
        employees.define_rule(
            "earns-sym", "(a, EARNS, b) => (b, EARNED-BY, a)")
        employees.query(self.JOIN)
        after = employees.stats()["plan_cache"]
        # New configuration epoch → new entry, not a hit on the old one.
        assert after["misses"] == before["misses"] + 1
        assert after["entries"] == before["entries"] + 1

    def test_composition_limit_change_is_a_new_epoch(self, employees):
        employees.query(self.JOIN)
        before = employees.stats()["plan_cache"]
        employees.limit(3)
        employees.query(self.JOIN)
        after = employees.stats()["plan_cache"]
        assert after["misses"] == before["misses"] + 1

    def test_fast_path_sees_rule_derived_facts(self):
        database = Database()
        database.add("A", "REL", "B")
        text = "(x, REL2, y)"
        assert database.query(text) == set()
        database.define_rule("lift", "(a, REL, b) => (a, REL2, b)")
        assert database.query(text) == {("A", "B")}
        database.exclude("lift")
        assert database.query(text) == set()

    def test_cached_plan_survives_compaction(self, employees):
        """A plan lowered over the hash store keeps serving after
        ``compact_store()``: the same entry, re-annotated with the new
        generation's ids on its next execution."""
        text = "(EMP0, ∈, EMPLOYEE)"
        assert employees.ask(text)
        cache = employees._plan_cache
        entry = next(iter(cache._entries.values()))
        assert entry.plan.root.id_ann is None
        employees.compact_store()
        before = cache.stats()
        assert employees.ask(text)
        assert cache.stats()["misses"] == before["misses"]
        generation = employees.view().store.generation
        assert entry.plan.root.id_ann.generation is generation

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
    """Texts biased toward the ``point``/``star``/``scan`` shapes:
    ground, half-ground, and repeated-variable single atoms (plus the
    odd unsafe spelling)."""
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
def test_fast_path_equivalence(seed, monkeypatch):
    """12-seed randomized run over single-atom queries (the shapes a
    dedicated fast path used to absorb; they now run the one executor):
    answers, verdicts and QueryError messages of the compiled engine
    equal the reference engine's over the hash store, the interned
    store, and an interned store with overlay facts and tombstones —
    in the id and the string domain, cold and again through the warm
    plan cache."""
    rng = random.Random(f"fastpath-{seed}")
    database = books.load()
    view = database.view()
    entities = sorted({c for fact in view.store
                       for c in (fact.source, fact.target)})
    relationships = sorted({fact.relationship for fact in view.store})
    queries = _single_atom_queries(rng, entities, relationships)

    def churn(db):
        """The same seeded adds + removes, applied to each churned
        database (base facts sorted: set order is not stable)."""
        churn_rng = random.Random(f"fastpath-churn-{seed}")
        base = sorted(db.facts, key=tuple)
        for fact in churn_rng.sample(base, 3):
            db.remove_fact(fact)
        for _ in range(3):
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
    for id_domain in (True, False):
        monkeypatch.setattr(qexec, "ID_DOMAIN", id_domain)
        for reference, probe_view in cases:
            compiled = CompiledEvaluator(probe_view, plans=PlanCache())
            for text in queries + queries:      # second lap: warm plans
                expected = _outcome(reference.evaluate, text)
                assert _outcome(compiled.evaluate, text) == expected, \
                    (seed, id_domain, text)
                assert _outcome(compiled.succeeds, text) \
                    == _outcome(reference.succeeds, text), \
                    (seed, id_domain, text)


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
