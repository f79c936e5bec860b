"""Seeded randomized store-layout equivalence suite.

The compiled executor has one leaf and runs it in id space on every
store: a compacted store's ids are its generation's interned ints
(query constants interned at plan-bind time, names decoded once at
emission), a hash store's ids are its names.  This suite proves the
layout is *unobservable*: over seeded random formulas (atoms with
constants, repeated variables, virtual relationships, ∧/∨/∃/∀) and
every layout — plain, freshly interned, interned with post-compaction
adds (scratch ids), overlay facts and tombstones, and interned past
:data:`~repro.core.interned.OVERLAY_BUDGET` — the compiled engine
produces the reference engine's answer sets, ask / succeeds verdicts
and :class:`QueryError` messages, with the standard virtual registry
and with a custom computed relation that sends every key across the
string boundary; explain-analyze row counts do not depend on the
layout either.
"""

from __future__ import annotations

import random

import pytest

from repro.browse.retraction import probe
from repro.core.errors import QueryError
from repro.core.facts import Fact, Template, Variable
from repro.core.interned import OVERLAY_BUDGET
from repro.db import Database
from repro.query import CompiledEvaluator, Evaluator
from repro.query.ast import And, Formula, Or, Query, atom, exists, forall
from repro.query.explain import explain_analyze
from repro.virtual import (EndpointWitness, MathRelation,
                           ReflexiveGeneralization)
from repro.virtual.computed import ComputedRelation, FactView, VirtualRegistry

SEEDS = range(12)
QUERIES_PER_CASE = 5

X, Y, Z = (Variable(name) for name in "xyz")
VARIABLES = (X, Y, Z)
QUANTIFIED = Variable("w")


# ----------------------------------------------------------------------
# Store layouts: one logical content, four representations
# ----------------------------------------------------------------------
def _populate(db: Database) -> None:
    for i in range(8):
        db.add(f"E{i}", "∈", "ENGINEER" if i % 2 else "CLERK")
        db.add(f"E{i}", "WORKS-FOR", f"D{i % 3}")
        db.add(f"E{i}", "EARNS", f"{30 + i}000")
    db.add("ENGINEER", "≺", "EMPLOYEE")
    db.add("CLERK", "≺", "EMPLOYEE")
    db.add("EMPLOYEE", "≺", "PERSON")
    db.add("D0", "∈", "DEPARTMENT")
    db.add("D1", "∈", "DEPARTMENT")
    db.add("E1", "CITES", "E1")        # repeated-variable fodder
    db.add("E2", "CITES", "E3")


def _mutate(db: Database) -> None:
    """Post-compaction churn: scratch-id entities land in the overlay,
    a stored fact gains a tombstone."""
    db.add("NEWCO", "∈", "DEPARTMENT")
    db.add("E0", "WORKS-FOR", "NEWCO")
    db.remove_fact(Fact("E2", "WORKS-FOR", "D2"))


def _over_budget(db: Database) -> None:
    """``OVERLAY_BUDGET + 1`` additions among the existing employees,
    plus a tombstone: more outside the generation than a serving
    writer would leave unfolded."""
    for n in range(OVERLAY_BUDGET + 1):
        db.add(f"E{n % 8}", ("KNOWS", "LIKES", "MEETS")[n // 64],
               f"E{n // 8 % 8}")
    db.remove_fact(Fact("E2", "WORKS-FOR", "D2"))


#: name -> (compacted, post-compaction churn)
_VARIANTS = {
    "plain": (False, None),
    "interned": (True, None),
    "interned-mutated": (True, _mutate),
    "interned-over-budget": (True, _over_budget),
}


def _database(compacted: bool, churn) -> Database:
    db = Database()
    _populate(db)
    db.view()            # closure lands in the base before the freeze
    if compacted:
        db.compact_store()
    if churn is not None:
        churn(db)
    return db


_CACHE: dict = {}


def _views(variant: str):
    """``(variant view, plain twin view, entities, relationships)``."""
    if variant not in _CACHE:
        compacted, churn = _VARIANTS[variant]
        view = _database(compacted, churn).view()
        twin = _database(False, churn).view()
        entities, relationships = set(), set()
        for fact in view.store:
            entities.add(fact.source)
            entities.add(fact.target)
            relationships.add(fact.relationship)
        _CACHE[variant] = (view, twin,
                           sorted(entities), sorted(relationships))
    return _CACHE[variant]


class _UpperEcho(ComputedRelation):
    """A non-standard computed relation that declares no triggers:
    (A, ECHOES, A) for every entity.  Its own ``handles`` can only be
    asked on names, so under a registry holding it every key of every
    atom is asked of it across the string boundary; the standard
    relations beside it stay on ids."""

    def handles(self, pattern: Template) -> bool:
        return pattern.relationship == "ECHOES"

    def facts(self, pattern, store):
        for entity in store.entities():
            fact = Fact(entity, "ECHOES", entity)
            if pattern.match(fact) is not None:
                yield fact

    def estimate(self, pattern, store) -> int:
        return len(store.entities())


def _with_echo(view: FactView) -> FactView:
    """The same store under the standard registry plus ``_UpperEcho``."""
    return FactView(view.store, VirtualRegistry([*view.virtual,
                                                 _UpperEcho()]))


@pytest.fixture(params=[False, True], ids=["id-domain", "string-domain"])
def custom(request):
    """Run the test body under the standard virtual registry, whose
    triggers are decided in id space, and under one with a custom
    relation, where every key is decided on strings."""
    return request.param


# ----------------------------------------------------------------------
# Random formula generation (same shape corpus as the engine suite)
# ----------------------------------------------------------------------
def _random_term(rng, entities):
    if rng.random() < 0.45:
        return rng.choice(VARIABLES)
    return rng.choice(entities)


def _random_atom(rng, entities, relationships):
    roll = rng.random()
    if roll < 0.65:
        relationship = rng.choice(relationships)
    elif roll < 0.80:
        relationship = rng.choice(("≠", ">", "<"))   # virtual idioms
    else:
        relationship = rng.choice(VARIABLES)
    return atom(_random_term(rng, entities), relationship,
                _random_term(rng, entities))


def _random_formula(rng, entities, relationships,
                    depth: int = 2) -> Formula:
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return _random_atom(rng, entities, relationships)
    if roll < 0.70:
        parts = tuple(
            _random_formula(rng, entities, relationships, depth - 1)
            for _ in range(rng.randint(2, 3)))
        return And(parts)
    if roll < 0.85:
        parts = tuple(
            _random_formula(rng, entities, relationships, depth - 1)
            for _ in range(2))
        return Or(parts)
    body = _random_formula(rng, entities, relationships, depth - 1)
    if roll < 0.95:
        return exists(rng.choice(VARIABLES), body)
    return forall(QUANTIFIED, body)


def _single_atoms(rng, entities, relationships):
    """Single-atom plans that drive the leaf on its awkward shapes: a
    repeated new variable (equality checked on ids) and the trigger
    relation ``≺`` open, source-bound and target-bound (virtual
    reflexive and endpoint facts merged per key)."""
    return [
        atom(X, rng.choice(relationships), X),
        atom(X, "≺", Y),
        atom(rng.choice(entities), "≺", Y),
        atom(X, "≺", rng.choice(entities)),
    ]


def _outcome(evaluator, query):
    try:
        return ("value", evaluator.evaluate(query))
    except QueryError as error:
        return ("QueryError", str(error))


# ----------------------------------------------------------------------
# The randomized sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_and_domains_agree(variant, seed, custom):
    view, twin, entities, relationships = _views(variant)
    if custom:
        view, twin = _with_echo(view), _with_echo(twin)
        relationships = relationships + ["ECHOES"]
    compiled = CompiledEvaluator(view)
    reference = Evaluator(view)
    twin_reference = Evaluator(twin)
    rng = random.Random(f"{variant}-{seed}")
    formulas = [_random_formula(rng, entities, relationships)
                for _ in range(QUERIES_PER_CASE)]
    for formula in formulas + _single_atoms(rng, entities, relationships):
        query = Query.of(formula)
        expected = _outcome(reference, query)
        # The representation itself must be unobservable too.
        assert _outcome(twin_reference, query) == expected, \
            f"seed {seed}, variant {variant}: {query}"
        actual = _outcome(compiled, query)
        assert actual == expected, \
            f"seed {seed}, variant {variant}: {query}"
        if expected[0] == "value":
            assert compiled.succeeds(query) == reference.succeeds(query)
            if query.is_proposition:
                assert compiled.ask(query) == reference.ask(query)


def test_over_budget_variant_is_past_the_budget():
    view, _twin, _e, _r = _views("interned-over-budget")
    assert view.store.overlay_size > OVERLAY_BUDGET
    assert view.store.tombstones


# ----------------------------------------------------------------------
# Explain-analyze row counts: interned ids and names agree per operator
# ----------------------------------------------------------------------
_EXPLAIN_QUERIES = (
    "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, y) and (y, ∈, DEPARTMENT)",
    "(x, WORKS-FOR, D0) or (x, WORKS-FOR, NEWCO)",
    "(x, CITES, x)",
    "(x, ∈, ENGINEER) and (x, EARNS, s) and (s, >, 31000)",
)


@pytest.mark.parametrize("text", _EXPLAIN_QUERIES)
def test_explain_analyze_rows_match_across_domains(text):
    view, twin, _e, _r = _views("interned-mutated")
    with_ids = explain_analyze(view, text, engine="compiled")
    with_names = explain_analyze(twin, text, engine="compiled")
    assert with_ids.value == with_names.value
    assert [(s.formula, s.evals, s.actual_rows)
            for s in with_ids.steps] \
        == [(s.formula, s.evals, s.actual_rows) for s in with_names.steps]


# ----------------------------------------------------------------------
# Which ids an execution ran on
# ----------------------------------------------------------------------
def _run_flag(view, text) -> bool:
    """Execute ``text`` and report whether the execution ran on a
    generation's interned ids."""
    _value, run = CompiledEvaluator(view).evaluate_with_stats(text)
    return run.id_domain


def test_id_domain_engages_on_interned_stores(custom):
    """Every compacted layout runs on its generation's ids — past the
    overlay budget and under a custom registry included."""
    text = "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, y)"
    for variant in _VARIANTS:
        if variant == "plain":
            continue
        view = _views(variant)[0]
        assert _run_flag(_with_echo(view) if custom else view, text), \
            variant


def test_plain_stores_stay_on_the_string_path(custom):
    """A hash store's ids are its names: nothing to decode."""
    view = _views("plain")[0]
    assert _run_flag(_with_echo(view) if custom else view,
                     "(x, ∈, EMPLOYEE)") is False


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_a_registry_without_the_standard_relations(variant):
    """Endpoints, ``≺`` and the comparators hold only through the
    registry: with an empty one, every layout answers as the reference
    engine does — no endpoint witnessed in id space."""
    view = FactView(_views(variant)[0].store, VirtualRegistry())
    compiled, reference = CompiledEvaluator(view), Evaluator(view)
    for text in ("(∇, WORKS-FOR, x)", "(E1, Δ, x)", "(x, WORKS-FOR, Δ)",
                 "(x, ≺, EMPLOYEE)",
                 "(x, EARNS, s) and (s, >, 31000)"):
        assert _outcome(compiled, text) == _outcome(reference, text), \
            (variant, text)


# ----------------------------------------------------------------------
# Beside another relation, the standard ones stay on ids
# ----------------------------------------------------------------------
class _DeclaredEcho(_UpperEcho):
    """``_UpperEcho`` with its trigger declared (``ECHOES`` as
    relationship) and the ``handles`` derived from it."""

    TRIGGERS = (frozenset(), frozenset({"ECHOES"}), frozenset())
    handles = ComputedRelation.handles


@pytest.fixture
def string_calls(monkeypatch):
    """The ``facts`` / ``handles`` calls — the string forms — of the
    standard relations and of ``_DeclaredEcho``, outside the planner's
    estimates (which ask ``handles`` of every relation)."""
    calls, planning = [], []
    estimate = VirtualRegistry.estimate

    def planner_estimate(self, pattern, store):
        planning.append(pattern)
        try:
            return estimate(self, pattern, store)
        finally:
            planning.pop()

    monkeypatch.setattr(VirtualRegistry, "estimate", planner_estimate)
    for cls in (MathRelation, ReflexiveGeneralization, EndpointWitness,
                _DeclaredEcho):
        for name in ("facts", "handles"):
            def spy(self, pattern, *rest, _method=getattr(cls, name),
                    _name=f"{cls.__name__}.{name}"):
                if not planning:
                    calls.append((_name, pattern))
                return _method(self, pattern, *rest)
            monkeypatch.setattr(cls, name, spy)
    return calls


@pytest.mark.parametrize("echo", [_UpperEcho, _DeclaredEcho],
                         ids=["undeclared", "declared"])
def test_standard_relations_stay_on_ids_beside_another(echo,
                                                       string_calls):
    """On a compacted store, with another relation in the standard
    registry — declaring its triggers or not — endpoint queries and a
    failing probe's menu ask no standard relation, and no declared
    relation they do not trigger, for anything on names; and they
    answer as the reference engine does."""
    db = _database(True, None)
    view = FactView(db.view().store,
                    VirtualRegistry([*db.view().virtual, echo()]))
    compiled, reference = CompiledEvaluator(view), Evaluator(view)
    for text in ("(∇, WORKS-FOR, x)", "(x, WORKS-FOR, Δ)"):
        value = compiled.evaluate(text)
        assert string_calls == [], text
        assert value == reference.evaluate(text) != set(), text
        string_calls.clear()
    text = "(E0, WORKS-FOR, D1)"
    result = probe(compiled, text, db.hierarchy())
    assert string_calls == []
    assert not result.succeeded and result.waves
    assert result.menu() == probe(reference, text, db.hierarchy()).menu()
    string_calls.clear()
    echoes = "(x, ECHOES, y) and (x, WORKS-FOR, D1)"
    assert compiled.evaluate(echoes) == reference.evaluate(echoes) != set()
