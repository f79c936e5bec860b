"""Composition inference tests (§3.7, §6.1): the materialising oracle
(:func:`~repro.rules.composition.compose_closure`), and the read-time
relation a database's view answers with
(:class:`~repro.virtual.composition.Composition`) held to it."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.entities import ISA, MEMBER, composition_length
from repro.core.facts import Fact, Template, Variable
from repro.core.store import FactStore
from repro.datasets.synthetic import chain_facts
from repro.db import Database
from repro.query.ast import Atom, Query
from repro.query.evaluate import Evaluator
from repro.rules.composition import (
    COMPOSITION_OFF,
    composable,
    compose_closure,
    compose_pair,
)

from .hash_reference import hash_twin

TOM_CS = Fact("TOM", "ENROLLED-IN", "CS100")
CS_HARRY = Fact("CS100", "TAUGHT-BY", "HARRY")


class TestComposable:
    def test_chained_facts_compose(self):
        assert composable(TOM_CS, CS_HARRY)

    def test_disconnected_facts_do_not(self):
        assert not composable(TOM_CS, Fact("MATH101", "TAUGHT-BY", "SUE"))

    def test_cyclicity_guard(self):
        """The paper's JOHN-loves-MARY-loves-JOHN example must not
        compose."""
        loves = Fact("JOHN", "LOVES", "MARY")
        loved = Fact("MARY", "LOVES", "JOHN")
        assert not composable(loves, loved)

    def test_special_relationships_do_not_compose(self):
        isa = Fact("CS100", ISA, "COURSE")
        member = Fact("TOM", MEMBER, "STUDENT")
        assert not composable(TOM_CS, isa)
        assert not composable(member, Fact("STUDENT", "LOVE", "X"))


class TestComposePair:
    def test_paper_example(self):
        composed = compose_pair(TOM_CS, CS_HARRY)
        assert composed == Fact(
            "TOM", "ENROLLED-IN.CS100.TAUGHT-BY", "HARRY")

    def test_composed_length(self):
        composed = compose_pair(TOM_CS, CS_HARRY)
        assert composition_length(composed.relationship) == 2


class TestComposeClosure:
    def test_off_by_default_value(self):
        store = FactStore([TOM_CS, CS_HARRY])
        result = compose_closure(store, COMPOSITION_OFF)
        assert result.count == 0

    def test_single_level(self):
        store = FactStore([TOM_CS, CS_HARRY])
        result = compose_closure(store, 2)
        assert result.facts == {
            Fact("TOM", "ENROLLED-IN.CS100.TAUGHT-BY", "HARRY")}

    def test_limit_two_blocks_longer_chains(self):
        store = FactStore(chain_facts(4))
        lengths = {
            composition_length(f.relationship)
            for f in compose_closure(store, 2).facts
        }
        assert lengths == {2}

    def test_limit_three_allows_three(self):
        store = FactStore(chain_facts(4))
        lengths = {
            composition_length(f.relationship)
            for f in compose_closure(store, 3).facts
        }
        assert lengths == {2, 3}

    def test_chain_counts(self):
        """A simple chain of n facts has C(n, 2) contiguous subpaths of
        length >= 2."""
        n = 12
        store = FactStore(chain_facts(n))
        result = compose_closure(store, None)
        assert result.count == n * (n - 1) // 2

    def test_unlimited_terminates_on_cycle(self):
        cycle = [Fact("A", "R", "B"), Fact("B", "R", "C"),
                 Fact("C", "R", "A")]
        result = compose_closure(FactStore(cycle), None)
        # Simple paths only: each of the 3 length-2 arcs, and nothing
        # longer (a length-3 chain would close the cycle).
        assert result.count == 3

    def test_bounded_limit_on_cycle_follows_paper_guard(self):
        cycle = [Fact("A", "R", "B"), Fact("B", "R", "C"),
                 Fact("C", "R", "A")]
        result = compose_closure(FactStore(cycle), 4)
        # With the paper's endpoint guard only, longer-than-simple
        # chains are allowed as long as the endpoints differ.
        lengths = sorted(
            composition_length(f.relationship) for f in result.facts)
        assert lengths.count(2) == 3
        assert max(lengths) == 4

    def test_two_hop_diamond(self):
        facts = [
            Fact("A", "R", "B1"), Fact("A", "R", "B2"),
            Fact("B1", "S", "C"), Fact("B2", "S", "C"),
        ]
        result = compose_closure(FactStore(facts), 2)
        assert result.facts == {
            Fact("A", "R.B1.S", "C"), Fact("A", "R.B2.S", "C")}

    def test_composition_does_not_mutate_store(self):
        store = FactStore([TOM_CS, CS_HARRY])
        before = set(store)
        compose_closure(store, 3)
        assert set(store) == before

    def test_self_loop_excluded_from_unlimited_composition(self):
        """A self-loop is never on a simple path, so unlimited
        composition ignores it (and therefore terminates)."""
        store = FactStore([Fact("A", "R", "A"), Fact("A", "S", "B")])
        result = compose_closure(store, None)
        assert result.count == 0

    def test_self_loop_composes_under_bounded_limit(self):
        """Bounded composition uses exactly the paper's endpoint guard,
        which allows chaining through a self-loop."""
        store = FactStore([Fact("A", "R", "A"), Fact("A", "S", "B")])
        result = compose_closure(store, 2)
        assert Fact("A", "R.A.S", "B") in result.facts


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=8),
       limit=st.integers(min_value=2, max_value=6))
def test_chain_lengths_never_exceed_limit(n, limit):
    store = FactStore(chain_facts(n))
    result = compose_closure(store, limit)
    for fact in result.facts:
        assert composition_length(fact.relationship) <= limit


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=7))
def test_larger_limits_are_supersets(n):
    store = FactStore(chain_facts(n))
    previous = set()
    for limit in range(2, n + 1):
        current = compose_closure(store, limit).facts
        assert previous <= current
        previous = current


# ----------------------------------------------------------------------
# The read-time relation against the oracle
# ----------------------------------------------------------------------
X, Y, Z = Variable("x"), Variable("y"), Variable("z")

#: Names an entity such as ``3.5`` can spell a composed name with, and
#: special relationships the walk must not chain through.
ENTITIES = ("A", "B", "C", "3", "5", "3.5", "R")
RELATIONSHIPS = ("R", "S", "5", "R.3", "R.3.5", ISA, MEMBER)

GRAPHS = st.lists(st.tuples(st.sampled_from(ENTITIES),
                            st.sampled_from(RELATIONSHIPS),
                            st.sampled_from(ENTITIES)),
                  min_size=1, max_size=9)


def _templates(twin):
    """Every template shape over ``twin``'s closure: source bound,
    target bound, a composed name ground, all open (with a repeated
    variable too), and fully ground — facts of the closure and
    compositions that are not."""
    closure = sorted(twin.closure)
    composed = sorted(set(closure) - set(twin.standard.store))
    names = sorted({fact.relationship for fact in composed})
    templates = [Template(X, Y, Z), Template(X, Y, X), Template(X, X, Y),
                 Template(X, Y, Y)]
    for entity in ENTITIES:
        templates += [Template(entity, Y, Z), Template(X, Y, entity),
                      Template(entity, Y, entity)]
    for name in names + ["R.B.S", "R.3.5.S", "R.3.5.5.S"]:
        templates += [Template(X, name, Y), Template("A", name, Y),
                      Template(X, name, "C")]
    templates += [Template(*fact) for fact in closure]
    templates += [Template(fact.target, fact.relationship, fact.source)
                  for fact in composed]
    return templates


def _check(facts, limit):
    db = Database(Fact(*fact) for fact in facts)
    db.limit(limit)
    twin = hash_twin(db)
    view = db.view()
    reference = Evaluator(twin.view)
    compiled = db.evaluator()
    for template in _templates(twin):
        expected = set(twin.view.match(template))
        assert set(view.match(template)) == expected, template
        query = Query.of(Atom(template))
        assert compiled.evaluate(query) == reference.evaluate(query), \
            template
    assert view.entities() == twin.view.entities()
    assert db.stats()["closure_facts"] == len(twin.closure)
    for name in sorted(twin.view.entities()) + ["R.B.S", "R.3.5.S"]:
        assert view.closure.has_entity(name) == twin.closure.has_entity(name)
        assert (Fact("A", name, "C") in view) \
            == (Fact("A", name, "C") in twin.view)


@settings(max_examples=40, deadline=None)
@given(facts=GRAPHS, limit=st.sampled_from([2, 3, 4, None]))
# R ∘ (S ∘ T) passes the endpoint test where (R ∘ S) ∘ T does not.
@example(facts=[("A", "R", "B"), ("B", "S", "A"), ("A", "5", "C")],
         limit=3)
# An intermediate that holds the separator, a self-loop and a cycle.
@example(facts=[("A", "R", "3.5"), ("3.5", "S", "C"), ("C", "S", "C"),
                ("C", "R", "A")], limit=None)
@example(facts=[("A", "R", "3"), ("3", "5", "B"), ("B", "S", "C"),
                ("A", "R", "3.5"), ("3.5", "5", "B")], limit=4)
# A stored fact that a chain spells too is no composition.
@example(facts=[("A", "R", "3"), ("3", "5", "C"), ("A", "R.3.5", "C")],
         limit=2)
def test_the_view_answers_what_the_oracle_composes(facts, limit):
    _check(facts, limit)


def test_a_long_name_and_a_long_walk():
    """A ground name spells a path as long as the chain — walked without
    recursion — and a deadline cuts an open walk short."""
    from repro.core import deadline
    from repro.core.errors import DeadlineExceeded

    db = Database(chain_facts(1500))
    db.limit(None)
    name = ".".join(["NEXT"] + [f"N{i}.NEXT" for i in range(1, 1500)])
    assert Fact("N0", name, "N1500") in db.view()
    assert Fact("N1", name, "N1500") not in db.view()
    with deadline.deadline_scope(0.0):
        with pytest.raises(DeadlineExceeded):
            list(db.view().closure.facts(Template(X, Y, Z)))


def test_a_bracketing_that_passes_the_endpoint_test_composes():
    """``(A, R.B.S.A.T, C)`` composes at ``limit(3)`` as ``R ∘ (S ∘
    T)``, although ``R ∘ S`` would join A to itself; a simple path it
    is not, so ``limit(None)`` does not compose it."""
    db = Database([Fact("A", "R", "B"), Fact("B", "S", "A"),
                   Fact("A", "T", "C")])
    composed = Fact("A", "R.B.S.A.T", "C")
    db.limit(3)
    assert composed in db.view()
    assert composed in compose_closure(db.closure().store, 3).facts
    db.limit(None)
    assert composed not in db.view()
