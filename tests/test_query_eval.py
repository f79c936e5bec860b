"""Evaluator tests: semantics of ∧ ∨ ∃ ∀, safety, and the paper's
§2.7 example queries."""

from __future__ import annotations

import pytest

from repro.core.entities import EQ, GT, MEMBER, NE
from repro.core.errors import QueryError
from repro.core.facts import Fact, Template, var
from repro.core.store import FactStore
from repro.query.ast import (
    And,
    Atom,
    Exists,
    ForAll,
    Or,
    Query,
    atom,
    check_safety,
    exists,
    forall,
    limited_variables,
)
from repro.query.evaluate import Evaluator
from repro.query.parser import parse_query
from repro.virtual.computed import FactView
from repro.virtual.special import standard_virtual_registry

X, Y, Z = var("x"), var("y"), var("z")


def evaluator(facts):
    return Evaluator(FactView(FactStore(facts),
                              standard_virtual_registry()))


BOOKS = [
    Fact("B1", MEMBER, "BOOK"),
    Fact("B2", MEMBER, "BOOK"),
    Fact("B1", "CITES", "B1"),
    Fact("B1", "CITES", "B2"),
    Fact("B1", "AUTHOR", "SARAH"),
    Fact("B2", "AUTHOR", "JOHN"),
    Fact("SARAH", MEMBER, "PERSON"),
    Fact("JOHN", MEMBER, "PERSON"),
]


class TestAtoms:
    def test_single_free_variable(self):
        result = evaluator(BOOKS).evaluate(
            Query.of(atom(Y, MEMBER, "BOOK"), (Y,)))
        assert result == {("B1",), ("B2",)}

    def test_self_citation(self):
        result = evaluator(BOOKS).evaluate(
            Query.of(atom(X, "CITES", X), (X,)))
        assert result == {("B1",)}

    def test_two_free_variables(self):
        result = evaluator(BOOKS).evaluate(
            Query.of(atom(X, "CITES", Y), (X, Y)))
        assert result == {("B1", "B1"), ("B1", "B2")}


class TestConnectives:
    def test_conjunction_joins(self):
        formula = And((atom(X, MEMBER, "BOOK"), atom(X, "CITES", X)))
        result = evaluator(BOOKS).evaluate(Query.of(formula, (X,)))
        assert result == {("B1",)}

    def test_disjunction_unions(self):
        formula = Or((atom(X, "AUTHOR", "SARAH"),
                      atom(X, "AUTHOR", "JOHN")))
        result = evaluator(BOOKS).evaluate(Query.of(formula, (X,)))
        assert result == {("B1",), ("B2",)}

    def test_disjunction_deduplicates(self):
        formula = Or((atom(X, MEMBER, "BOOK"), atom(X, "CITES", X)))
        result = evaluator(BOOKS).evaluate(Query.of(formula, (X,)))
        assert result == {("B1",), ("B2",)}

    def test_empty_conjunct_fails_cleanly(self):
        formula = And((atom(X, MEMBER, "BOOK"),
                       atom(X, "CITES", "NOBODY")))
        assert evaluator(BOOKS).evaluate(Query.of(formula, (X,))) == set()


class TestQuantifiers:
    def test_exists_projects(self):
        formula = exists(X, And((atom(X, MEMBER, "BOOK"),
                                 atom(X, "AUTHOR", Y))))
        result = evaluator(BOOKS).evaluate(Query.of(formula, (Y,)))
        assert result == {("SARAH",), ("JOHN",)}

    def test_paper_self_citing_authors(self):
        formula = exists(X, And((
            atom(X, MEMBER, "BOOK"), atom(Y, MEMBER, "PERSON"),
            atom(X, "CITES", X), atom(X, "AUTHOR", Y))))
        result = evaluator(BOOKS).evaluate(Query.of(formula, (Y,)))
        assert result == {("SARAH",)}

    def test_negation_idiom_with_ne(self):
        formula = exists(Y, And((
            atom(X, MEMBER, "BOOK"), atom(X, "AUTHOR", Y),
            atom(Y, NE, "JOHN"))))
        result = evaluator(BOOKS).evaluate(Query.of(formula, (X,)))
        assert result == {("B1",)}

    def test_forall_as_filter(self):
        # The active domain here is {A, R}: A relates to both, so A
        # satisfies ∀y (A, R, y).
        facts = [Fact("A", "R", "A"), Fact("A", "R", "R")]
        ev = evaluator(facts)
        formula = And((atom(X, "R", X), forall(Y, atom(X, "R", Y))))
        assert ev.evaluate(Query.of(formula, (X,))) == {("A",)}

    def test_forall_fails_on_counterexample(self):
        ev = evaluator(BOOKS)
        formula = And((atom(X, MEMBER, "BOOK"),
                       forall(Y, atom(X, "CITES", Y))))
        # B1 does not cite SARAH (or itself? it does), so no x passes.
        assert ev.evaluate(Query.of(formula, (X,))) == set()

    def test_shadowed_variable_scopes_correctly(self):
        # exists x: (x, CITES, x) inside a query whose outer x is free
        # in another conjunct must not leak.
        inner = exists(X, atom(X, "CITES", X))
        formula = And((atom(X, MEMBER, "PERSON"), inner))
        result = evaluator(BOOKS).evaluate(Query.of(formula, (X,)))
        assert result == {("SARAH",), ("JOHN",)}


class TestPropositions:
    def test_true_proposition(self):
        ev = evaluator([Fact("JOHN", "LIKES", "FELIX"),
                        Fact("FELIX", "LIKES", "JOHN")])
        query = parse_query(
            "(JOHN, LIKES, FELIX) and (FELIX, LIKES, JOHN)")
        assert ev.ask(query)

    def test_false_proposition(self):
        ev = evaluator([Fact("JOHN", "LIKES", "FELIX")])
        query = parse_query(
            "(JOHN, LIKES, FELIX) and (FELIX, LIKES, JOHN)")
        assert not ev.ask(query)

    def test_ask_rejects_open_formulas(self):
        ev = evaluator(BOOKS)
        with pytest.raises(QueryError):
            ev.ask(parse_query("(x, CITES, x)"))


class TestMathInQueries:
    def test_salary_threshold(self):
        facts = [
            Fact("JOHN", MEMBER, "EMPLOYEE"),
            Fact("JOHN", "EARNS", "25000"),
            Fact("TOM", MEMBER, "EMPLOYEE"),
            Fact("TOM", "EARNS", "18000"),
        ]
        ev = evaluator(facts)
        query = parse_query(
            "exists y: (z, in, EMPLOYEE) and (z, EARNS, y)"
            " and (y, >, 20000)")
        assert ev.evaluate(query) == {("JOHN",)}

    def test_comparator_with_both_sides_bound_by_joins(self):
        facts = [
            Fact("JOHN", "EARNS", "25000"),
            Fact("MARY", "EARNS", "30000"),
        ]
        ev = evaluator(facts)
        query = parse_query(
            "exists u, v: (JOHN, EARNS, u) and (MARY, EARNS, v)"
            " and (v, >, u)")
        assert ev.ask(query)


class TestSafety:
    def test_limited_variables_atom(self):
        assert limited_variables(atom(X, "R", Y)) == frozenset({X, Y})

    def test_limited_variables_or_intersects(self):
        formula = Or((atom(X, "R", Y), atom(X, "R", "B")))
        assert limited_variables(formula) == frozenset({X})

    def test_unsafe_disjunct_rejected(self):
        formula = Or((atom(X, "R", Y), atom(X, "R", "B")))
        with pytest.raises(QueryError, match="unsafe"):
            check_safety(formula)

    def test_safe_query_passes(self):
        check_safety(And((atom(X, "R", Y), atom(Y, "S", Z))))

    def test_forall_needs_enclosing_generator(self):
        formula = forall(Y, atom(X, "CITES", Y))
        with pytest.raises(QueryError):
            check_safety(formula)

    def test_forall_with_generator_passes(self):
        formula = And((atom(X, MEMBER, "BOOK"),
                       forall(Y, atom(X, "CITES", Y))))
        check_safety(formula)

    def test_evaluate_checks_safety(self):
        ev = evaluator(BOOKS)
        unsafe = Query.of(forall(Y, atom(X, "CITES", Y)), (X,))
        with pytest.raises(QueryError):
            ev.evaluate(unsafe)


class TestFormulaCombinators:
    def test_and_operator(self):
        combined = atom(X, "R", Y) & atom(Y, "S", Z)
        assert isinstance(combined, And)
        assert len(combined.parts) == 2

    def test_and_flattens(self):
        combined = atom(X, "R", Y) & atom(Y, "S", Z) & atom(Z, "T", X)
        assert len(combined.parts) == 3

    def test_or_operator(self):
        combined = atom(X, "R", Y) | atom(X, "S", Y)
        assert isinstance(combined, Or)

    def test_query_of_validates_variables(self):
        with pytest.raises(QueryError):
            Query.of(atom(X, "R", Y), (X,))
        with pytest.raises(QueryError):
            Query.of(atom(X, "R", "B"), (X, Y))

    def test_query_of_defaults_to_sorted(self):
        query = Query.of(atom(Y, "R", X))
        assert query.variables == (X, Y)
