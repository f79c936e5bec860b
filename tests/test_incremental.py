"""Incremental closure maintenance: equivalence with recomputation.

The key property: after any sequence of insertions, the incrementally
maintained closure equals the closure recomputed from scratch — for
every interleaving of reads (which materialize the cache) and writes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entities import INV, ISA, MEMBER, SYN
from repro.core.facts import Fact
from repro.db import Database
from repro.rules.builtin import STANDARD_RULES
from repro.rules.dispatch import extend_closure
from repro.rules.engine import semi_naive_closure
from repro.rules.rule import RelationshipClassifier, RuleContext
from repro.core.store import FactStore


def _context(facts):
    return RuleContext(classifier=RelationshipClassifier(FactStore(facts)))


class TestExtendClosure:
    def test_extension_equals_recomputation(self):
        base = [Fact("A", ISA, "B"), Fact("B", ISA, "C")]
        extra = [Fact("C", ISA, "D"), Fact("X", MEMBER, "A")]
        context = _context(base + extra)

        incremental = semi_naive_closure(base, STANDARD_RULES, context)
        extend_closure(incremental, extra, STANDARD_RULES, context)

        recomputed = semi_naive_closure(base + extra, STANDARD_RULES,
                                        context)
        assert set(incremental.store) == set(recomputed.store)

    def test_extension_mutates_in_place(self):
        base = [Fact("A", ISA, "B")]
        context = _context(base)
        result = semi_naive_closure(base, STANDARD_RULES, context)
        store_before = result.store
        extend_closure(result, [Fact("B", ISA, "C")], STANDARD_RULES,
                       context)
        assert result.store is store_before
        assert Fact("A", ISA, "C") in result.store

    def test_duplicate_extension_is_noop(self):
        base = [Fact("A", ISA, "B")]
        context = _context(base)
        result = semi_naive_closure(base, STANDARD_RULES, context)
        size = len(result.store)
        iterations = result.iterations
        extend_closure(result, [Fact("A", ISA, "B")], STANDARD_RULES,
                       context)
        assert len(result.store) == size
        assert result.iterations == iterations

    def test_statistics_updated(self):
        base = [Fact("A", ISA, "B")]
        context = _context(base)
        result = semi_naive_closure(base, STANDARD_RULES, context)
        extend_closure(result, [Fact("B", ISA, "C")], STANDARD_RULES,
                       context)
        assert result.base_count == 2
        assert result.derived_count == len(result.store) - 2


class TestDatabaseIncremental:
    def test_queries_see_incremental_facts(self):
        db = Database()
        db.add("EMPLOYEE", "EARNS", "SALARY")
        assert db.query("(JOHN, EARNS, y)") == set()  # cache built
        db.add("JOHN", MEMBER, "EMPLOYEE")
        assert db.query("(JOHN, EARNS, y)") == {("SALARY",)}

    def test_navigation_sees_incremental_facts(self):
        db = Database()
        db.add("JOHN", "LIKES", "FELIX")
        assert not db.navigate("(JOHN, *, *)").is_empty()  # cache built
        db.add("FELIX", MEMBER, "CAT")
        assert "CAT" in db.navigate("(JOHN, *, *)").groups["LIKES"]

    def test_hierarchy_sees_incremental_facts(self):
        db = Database()
        db.add("A", ISA, "B")
        assert db.hierarchy().minimal_generalizations("A") == {"B"}
        db.add("B", ISA, "C")
        assert db.hierarchy().minimal_generalizations("B") == {"C"}

    def test_composition_refreshes_after_incremental_add(self):
        db = Database()
        db.limit(2)
        db.add("A", "R", "B")
        assert db.match("(A, *, C)") == []  # cache built
        db.add("B", "S", "C")
        assert db.ask("(A, R.B.S, C)")

    def test_incremental_matches_fresh_database(self):
        facts = [
            Fact("JOHN", MEMBER, "EMPLOYEE"),
            Fact("EMPLOYEE", ISA, "PERSON"),
            Fact("EMPLOYEE", "EARNS", "SALARY"),
            Fact("SALARY", ISA, "COMPENSATION"),
            Fact("JOHN", SYN, "JOHNNY"),
            Fact("TEACHES", INV, "TAUGHT-BY"),
            Fact("JOHN", "TEACHES", "CS100"),
        ]
        incremental = Database()
        for fact in facts:
            incremental.add_fact(fact)
            incremental.closure()  # force a cache between every write
        fresh = Database()
        fresh.add_facts(facts)
        assert set(incremental.closure().store) == set(
            fresh.closure().store)

    @pytest.mark.parametrize("interned", [False, True])
    def test_counts_follow_a_derived_fact_in_and_out_of_the_base(
            self, interned):
        """Storing a fact the closure already *derived* makes it a base
        fact: ``base_count`` / ``derived_count`` move with it — through
        add, remove and re-add — and equal a recomputation's."""
        db = Database()
        db.add("JOHN", MEMBER, "EMPLOYEE")
        db.add("EMPLOYEE", ISA, "PERSON")
        if interned:
            db.compact_store()
        derived = Fact("JOHN", MEMBER, "PERSON")
        assert derived in db.closure().store and derived not in db.facts

        def check():
            closure = db.closure()
            assert closure.base_count == len(db.facts)
            assert closure.base_count + closure.derived_count \
                == len(closure.store)
            fresh = Database(db.facts, with_axioms=False).closure()
            assert (closure.base_count, closure.derived_count) \
                == (fresh.base_count, fresh.derived_count)

        check()
        assert db.add_fact(derived)
        check()
        assert db.remove_fact(derived)
        assert derived in db.closure().store      # rederived
        check()
        assert db.add_fact(derived)
        check()


# ----------------------------------------------------------------------
# Property: random interleavings of writes and cache-building reads.
# ----------------------------------------------------------------------
_entities = st.sampled_from(["A", "B", "C", "D"])
_relationships = st.sampled_from(["R", "S", ISA, MEMBER, SYN])
_random_facts = st.lists(
    st.builds(Fact, _entities, _relationships, _entities),
    min_size=1, max_size=12)
_read_points = st.sets(st.integers(0, 11))


@settings(max_examples=40, deadline=None)
@given(facts=_random_facts, read_points=_read_points)
def test_incremental_equals_recomputed(facts, read_points):
    incremental = Database(with_axioms=False)
    for index, fact in enumerate(facts):
        if index in read_points:
            incremental.closure()  # materialize cache mid-stream
        incremental.add_fact(fact)
    fresh = Database(with_axioms=False)
    fresh.add_facts(facts)
    assert set(incremental.closure().store) == set(fresh.closure().store)


@settings(max_examples=25, deadline=None)
@given(facts=_random_facts)
def test_incremental_with_composition_equals_recomputed(facts):
    incremental = Database(with_axioms=False)
    incremental.limit(2)
    incremental.closure()
    for fact in facts:
        incremental.add_fact(fact)
        incremental.closure()
    fresh = Database(with_axioms=False)
    fresh.limit(2)
    fresh.add_facts(facts)
    assert set(incremental.closure().store) == set(fresh.closure().store)
