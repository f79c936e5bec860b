"""Tests for the virtual (computed) relations and the FactView."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entities import BOTTOM, EQ, GE, GT, ISA, LE, LT, NE, TOP
from repro.core.facts import Fact, Template, var
from repro.core.store import FactStore
from repro.virtual.computed import FactView, VirtualRegistry
from repro.virtual.math_facts import MathRelation, compare, entities_equal
from repro.virtual.special import (
    EndpointWitness,
    ReflexiveGeneralization,
    standard_virtual_registry,
)

X, Y = var("x"), var("y")


def make_view(facts=()):
    return FactView(FactStore(facts), standard_virtual_registry())


class TestEntitiesEqual:
    def test_same_name(self):
        assert entities_equal("JOHN", "JOHN")

    def test_different_names(self):
        assert not entities_equal("JOHN", "MARY")

    def test_numeric_value_equality(self):
        assert entities_equal("$25,000", "25000")
        assert entities_equal("2.0", "2")

    def test_number_vs_name(self):
        assert not entities_equal("25000", "JOHN")


class TestCompare:
    @pytest.mark.parametrize("rel,left,right,expected", [
        (LT, "5", "8", True),
        (LT, "8", "5", False),
        (GT, "25000", "20000", True),
        (LE, "5", "5", True),
        (GE, "5", "8", False),
        (EQ, "JOHN", "JOHN", True),
        (NE, "JOHN", "MARY", True),
        (NE, "JOHN", "JOHN", False),
    ])
    def test_table(self, rel, left, right, expected):
        assert compare(rel, left, right) is expected

    def test_order_on_non_numbers_is_false(self):
        assert not compare(LT, "JOHN", "MARY")
        assert not compare(GT, "JOHN", "5")

    def test_dollar_values(self):
        assert compare(GT, "$25000", "20000")


class TestMathRelation:
    def test_ground_comparison(self):
        view = make_view()
        assert list(view.match(Template("25000", GT, "20000"))) == [
            Fact("25000", GT, "20000")]
        assert list(view.match(Template("10", GT, "20000"))) == []

    def test_enumerates_numeric_domain(self):
        view = make_view([Fact("JOHN", "EARNS", "25000"),
                          Fact("TOM", "EARNS", "19000")])
        matches = {f.source for f in view.match(Template(X, GT, "20000"))}
        assert matches == {"25000"}

    def test_equality_binds_without_domain(self):
        view = make_view()
        assert list(view.match(Template(X, EQ, "JOHN"))) == [
            Fact("JOHN", EQ, "JOHN")]

    def test_inequality_enumerates_domain(self):
        view = make_view([Fact("A", "R", "B")])
        matches = {f.source for f in view.match(Template(X, NE, "A"))}
        assert matches == {"R", "B"}

    def test_same_variable_both_sides(self):
        view = make_view([Fact("A", "R", "B")])
        eq_matches = set(view.match(Template(X, EQ, X)))
        assert eq_matches == {Fact(e, EQ, e) for e in ("A", "R", "B")}
        assert set(view.match(Template(X, NE, X))) == set()

    def test_relationship_variable_not_handled(self):
        """Math facts only match when the comparator is explicit —
        otherwise (x, y, z) would enumerate mathematics."""
        view = make_view([Fact("5", "R", "8")])
        facts = set(view.match(Template("5", Y, "8")))
        assert facts == {Fact("5", "R", "8")}


class TestReflexiveGeneralization:
    def test_reflexive_for_domain_entities(self):
        view = make_view([Fact("A", "R", "B")])
        assert Fact("A", ISA, "A") in set(view.match(Template("A", ISA, X)))

    def test_everything_below_top(self):
        view = make_view([Fact("A", "R", "B")])
        assert list(view.match(Template("A", ISA, TOP)))

    def test_bottom_below_everything(self):
        view = make_view([Fact("A", "R", "B")])
        assert list(view.match(Template(BOTTOM, ISA, "A")))

    def test_unknown_entity_not_reflexive(self):
        view = make_view([Fact("A", "R", "B")])
        assert list(view.match(Template("GHOST", ISA, "GHOST"))) == []

    def test_open_isa_includes_reflexives_and_endpoints(self):
        view = make_view([Fact("A", "R", "B")])
        facts = set(view.match(Template(X, ISA, Y)))
        assert Fact("A", ISA, "A") in facts
        assert Fact("A", ISA, TOP) in facts
        assert Fact(BOTTOM, ISA, "A") in facts

    def test_stored_isa_facts_still_match(self):
        view = make_view([Fact("CAT", ISA, "ANIMAL")])
        facts = set(view.match(Template("CAT", ISA, X)))
        assert Fact("CAT", ISA, "ANIMAL") in facts


class TestEndpointWitness:
    def test_top_relationship_witnessed(self):
        view = make_view([Fact("JOHN", "LIKES", "FELIX")])
        assert list(view.match(Template("JOHN", TOP, "FELIX"))) == [
            Fact("JOHN", TOP, "FELIX")]

    def test_top_relationship_absent_without_witness(self):
        view = make_view([Fact("JOHN", "LIKES", "FELIX")])
        assert list(view.match(Template("JOHN", TOP, "MARY"))) == []

    def test_bottom_source_witnessed(self):
        view = make_view([Fact("JOHN", "LIKES", "FELIX")])
        assert list(view.match(Template(BOTTOM, "LIKES", "FELIX"))) == [
            Fact(BOTTOM, "LIKES", "FELIX")]

    def test_top_target_witnessed(self):
        view = make_view([Fact("JOHN", "LIKES", "FELIX")])
        assert list(view.match(Template("JOHN", "LIKES", TOP))) == [
            Fact("JOHN", "LIKES", TOP)]

    def test_combined_endpoints(self):
        view = make_view([Fact("JOHN", "LIKES", "FELIX")])
        assert list(view.match(Template(BOTTOM, TOP, "FELIX"))) == [
            Fact(BOTTOM, TOP, "FELIX")]

    def test_open_positions_enumerate_witnesses(self):
        view = make_view([
            Fact("JOHN", "LIKES", "FELIX"),
            Fact("JOHN", "LIKES", "MARY"),
            Fact("TOM", "HATES", "FELIX"),
        ])
        matches = set(view.match(Template(X, TOP, "FELIX")))
        assert matches == {Fact("JOHN", TOP, "FELIX"),
                           Fact("TOM", TOP, "FELIX")}

    def test_ground_pattern_stops_at_the_first_witness(self):
        """Every witness of a pattern without variables projects to the
        pattern itself, so one is enough: the store is asked to produce
        a single fact however many would match."""
        class CountingStore(FactStore):
            produced = 0

            def match(self, pattern):
                for fact in super().match(pattern):
                    self.produced += 1
                    yield fact

        store = CountingStore(
            Fact(f"P{n}", "LIKES", "FELIX") for n in range(21))
        pattern = Template(BOTTOM, "LIKES", "FELIX")
        assert list(EndpointWitness().facts(pattern, store)) == [
            Fact(BOTTOM, "LIKES", "FELIX")]
        assert store.produced == 1
        assert list(EndpointWitness().facts(
            Template(BOTTOM, "HATES", "FELIX"), store)) == []
        # An open position still enumerates (and dedupes) them all.
        assert list(EndpointWitness().facts(
            Template(BOTTOM, "LIKES", X), store)) == [
                Fact(BOTTOM, "LIKES", "FELIX")]
        assert store.produced == 1 + 21

    def test_star_navigation_not_polluted(self):
        """A free relationship variable must not surface Δ facts."""
        view = make_view([Fact("JOHN", "LIKES", "FELIX")])
        facts = set(view.match(Template("JOHN", Y, "FELIX")))
        assert facts == {Fact("JOHN", "LIKES", "FELIX")}


class TestFactView:
    def test_contains_stored_and_virtual(self):
        view = make_view([Fact("A", "R", "B")])
        assert Fact("A", "R", "B") in view
        assert Fact("A", ISA, TOP) in view
        assert Fact("5", LT, "8") in view
        assert Fact("A", "S", "B") not in view

    def test_solutions_merge_sources(self):
        view = make_view([Fact("25000", "IS", "BIG")])
        solutions = list(view.solutions(Template("25000", GT, X)))
        # enumerates numeric entities below 25000 in the domain — only
        # 25000 itself is numeric here, and 25000 > 25000 is false.
        assert solutions == []

    def test_dedupes_stored_vs_virtual(self):
        # A stored fact that the virtual layer would also produce must
        # appear once.
        view = make_view([Fact("A", ISA, "A")])
        matches = list(view.match(Template("A", ISA, "A")))
        assert matches == [Fact("A", ISA, "A")]

    def test_count_estimate_includes_virtual(self):
        view = make_view([Fact("A", "R", "B")])
        assert view.count_estimate(Template(X, ISA, Y)) > 0

    def test_entities_excludes_virtual_endpoints(self):
        view = make_view([Fact("A", "R", "B")])
        domain = view.entities()
        assert TOP not in domain and BOTTOM not in domain


@settings(max_examples=40)
@given(left=st.integers(-50, 50), right=st.integers(-50, 50))
def test_exactly_one_of_lt_gt_eq(left, right):
    """§3.6: for every two numbers exactly one of <, >, = holds."""
    holds = [compare(rel, str(left), str(right)) for rel in (LT, GT, EQ)]
    assert sum(holds) == 1


@settings(max_examples=40)
@given(left=st.sampled_from(["A", "B", "5", "JOHN"]),
       right=st.sampled_from(["A", "B", "5", "JOHN"]))
def test_exactly_one_of_eq_ne(left, right):
    assert compare(EQ, left, right) != compare(NE, left, right)
