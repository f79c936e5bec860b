"""Database facade tests: lifecycle, caching, stats, axioms."""

from __future__ import annotations

import pytest

from repro.core.entities import INV, ISA, MEMBER
from repro.core.facts import Fact
from repro.db import AXIOM_FACTS, Database


class TestConstruction:
    def test_axioms_seeded_by_default(self):
        db = Database()
        for axiom in AXIOM_FACTS:
            assert axiom in db.facts

    def test_axioms_can_be_disabled(self):
        db = Database(with_axioms=False)
        assert len(db) == 0

    def test_initial_facts(self):
        db = Database([Fact("A", "R", "B")])
        assert Fact("A", "R", "B") in db.facts

    def test_repr(self):
        text = repr(Database())
        assert "facts" in text and "rules" in text


class TestMutation:
    def test_add_returns_novelty(self, empty_db):
        assert empty_db.add("A", "R", "B")
        assert not empty_db.add("A", "R", "B")

    def test_add_validates_components(self, empty_db):
        with pytest.raises(Exception):
            empty_db.add("", "R", "B")

    def test_remove(self, empty_db):
        empty_db.add("A", "R", "B")
        assert empty_db.remove_fact(Fact("A", "R", "B"))
        assert not empty_db.remove_fact(Fact("A", "R", "B"))

    def test_add_facts_counts(self, empty_db):
        added = empty_db.add_facts(
            [Fact("A", "R", "B"), Fact("A", "R", "B"), Fact("C", "R", "D")])
        assert added == 2


class TestClosureLifecycle:
    def test_closure_cached(self, paper_db):
        first = paper_db.closure()
        assert paper_db.closure() is first

    def test_insertion_maintained_incrementally(self, paper_db):
        """Insertion extends the cached closure in place instead of
        discarding it."""
        first = paper_db.closure()
        paper_db.add("NEW", "R", "B")
        after = paper_db.closure()
        assert after is first
        assert Fact("NEW", "R", "B") in after.store

    def test_removal_maintained_by_delete_rederive(self, paper_db):
        paper_db.add("NEW", "R", "B")
        first = paper_db.closure()
        paper_db.remove_fact(Fact("NEW", "R", "B"))
        after = paper_db.closure()
        assert after is first  # maintained in place
        assert Fact("NEW", "R", "B") not in after.store

    def test_classification_declaration_invalidates(self, paper_db):
        """(r, ∈, R_c) is non-monotone for the closure: it must force
        recomputation, not incremental extension."""
        assert paper_db.ask("(JOHN, WORKS-FOR, DEPARTMENT)")
        paper_db.declare_class_relationship("WORKS-FOR")
        assert not paper_db.ask("(JOHN, WORKS-FOR, DEPARTMENT)")

    def test_rule_toggle_invalidates(self, paper_db):
        first = paper_db.closure()
        paper_db.exclude("gen-transitive")
        assert paper_db.closure() is not first

    def test_limit_change_invalidates(self, paper_db):
        first = paper_db.closure()
        paper_db.limit(2)
        assert paper_db.closure() is not first

    def test_contains_checks_closure(self, paper_db):
        # Derived fact, never stored:
        derived = Fact("JOHN", "WORKS-FOR", "DEPARTMENT")
        assert derived not in paper_db.facts
        assert derived in paper_db

    def test_contains_checks_virtual(self, paper_db):
        assert Fact("25000", "<", "26000") in paper_db

    def test_view_includes_composition_when_enabled(self, empty_db):
        """Composition facts are the view's, never the closure store's."""
        empty_db.add("A", "R", "B")
        empty_db.add("B", "S", "C")
        composed = Fact("A", "R.B.S", "C")
        assert composed not in empty_db
        empty_db.limit(2)
        assert composed in empty_db.view()
        assert empty_db.match("(A, x, C)") == [composed]
        assert composed not in empty_db.closure().store

    def test_stats_count_composition(self, empty_db):
        empty_db.add("A", "R", "B")
        empty_db.add("B", "S", "C")
        before = empty_db.stats()
        empty_db.limit(2)
        stats = empty_db.stats()
        assert stats["closure_facts"] == before["closure_facts"] + 1
        assert stats["derived_facts"] == before["derived_facts"] + 1


class TestClassDeclarations:
    def test_declare_class_relationship_stops_inheritance(self, empty_db):
        empty_db.add("JOHN", MEMBER, "EMPLOYEE")
        empty_db.add("EMPLOYEE", "TOTAL-NUMBER", "180")
        assert empty_db.ask("(JOHN, TOTAL-NUMBER, 180)")  # default R_i
        empty_db.declare_class_relationship("TOTAL-NUMBER")
        assert not empty_db.ask("(JOHN, TOTAL-NUMBER, 180)")

    def test_declare_individual_overrides(self, empty_db):
        empty_db.add("JOHN", MEMBER, "EMPLOYEE")
        empty_db.add("EMPLOYEE", "EARNS", "SALARY")
        empty_db.declare_class_relationship("EARNS")
        empty_db.declare_individual_relationship("EARNS")
        assert empty_db.ask("(JOHN, EARNS, SALARY)")


class TestStats:
    def test_stats_shape(self, paper_db):
        stats = paper_db.stats()
        assert stats["base_facts"] == len(paper_db.facts)
        assert stats["closure_facts"] >= stats["base_facts"]
        assert stats["derived_facts"] == (
            stats["closure_facts"] - stats["base_facts"])
        assert "gen-transitive" in stats["enabled_rules"]
        assert stats["composition_limit"] == 1

    def test_len(self, empty_db):
        before = len(empty_db)
        empty_db.add("A", "R", "B")
        assert len(empty_db) == before + 1


class TestMatchHelper:
    def test_match_text_template(self, paper_db):
        facts = paper_db.match("(JOHN, EARNS, *)")
        assert Fact("JOHN", "EARNS", "$26000") in facts
        assert Fact("JOHN", "EARNS", "SALARY") in facts

    def test_match_sorted_unique(self, paper_db):
        facts = paper_db.match("(*, *, *)")
        assert facts == sorted(set(facts))


class TestInversionAxiom:
    def test_user_inversions_symmetric_out_of_the_box(self, empty_db):
        empty_db.add("TEACHES", INV, "TAUGHT-BY")
        assert empty_db.ask("(TAUGHT-BY, INV, TEACHES)")

    def test_contradiction_symmetric_out_of_the_box(self, empty_db):
        empty_db.add("LOVES", "⊥", "HATES")
        assert empty_db.ask("(HATES, CONTRA, LOVES)")
