"""Seeded randomized id-domain ≡ string-domain equivalence suite.

The compiled executor runs integer-native over interned stores
(``repro.query.exec.ID_DOMAIN``): query constants are interned at
plan-bind time, joins/dedup/∨/∃/∀ operate on id tuples, and names are
decoded exactly once at emission.  This suite proves the optimization
is *unobservable*: over seeded random formulas (atoms with constants,
repeated variables, virtual relationships, ∧/∨/∃/∀) and every store
representation — plain, freshly interned, and interned with
post-compaction adds (scratch ids), overlay facts, and tombstones —
the id path and the string path produce identical answer sets, ask /
succeeds verdicts, :class:`QueryError` messages, and explain-analyze
per-operator row counts, and both agree with the reference engine.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import QueryError
from repro.core.facts import Fact, Template, Variable
from repro.db import Database
from repro.query import CompiledEvaluator, Evaluator
from repro.query import exec as qexec
from repro.query.ast import And, Formula, Or, Query, atom, exists, forall
from repro.query.explain import explain_analyze
from repro.virtual.computed import ComputedRelation

SEEDS = range(12)
QUERIES_PER_CASE = 5

X, Y, Z = (Variable(name) for name in "xyz")
VARIABLES = (X, Y, Z)
QUANTIFIED = Variable("w")


# ----------------------------------------------------------------------
# Store variants: one logical content, three representations
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


def _plain(mutated: bool) -> Database:
    db = Database()
    _populate(db)
    db.view()
    if mutated:
        _mutate(db)
    return db


def _interned(mutated: bool) -> Database:
    db = Database()
    _populate(db)
    db.view()            # closure lands in the base before the freeze
    db.compact_store()
    if mutated:
        _mutate(db)
    return db


_VARIANTS = {
    "plain": lambda: _plain(False),
    "interned": lambda: _interned(False),
    "interned-mutated": lambda: _interned(True),
}

_CACHE: dict = {}


def _views(variant: str):
    """``(variant view, plain twin view, entities, relationships)``."""
    if variant not in _CACHE:
        view = _VARIANTS[variant]().view()
        twin = _plain(variant.endswith("mutated")).view()
        entities, relationships = set(), set()
        for fact in view.store:
            entities.add(fact.source)
            entities.add(fact.target)
            relationships.add(fact.relationship)
        _CACHE[variant] = (view, twin,
                           sorted(entities), sorted(relationships))
    return _CACHE[variant]


@pytest.fixture(params=[True, False], ids=["id-domain", "string-domain"])
def id_domain(request):
    """Run the test body under both executor value domains."""
    previous = qexec.ID_DOMAIN
    qexec.ID_DOMAIN = request.param
    try:
        yield request.param
    finally:
        qexec.ID_DOMAIN = previous


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
    """Single-atom plans that drive both leaves of the join skeleton
    on their awkward shapes: a repeated new variable (equality checked
    natively on ids, by re-match on strings) and the trigger relation
    ``≺`` open, source-bound and target-bound (virtual reflexive and
    endpoint facts merged per key)."""
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
def test_engines_and_domains_agree(variant, seed, id_domain):
    view, twin, entities, relationships = _views(variant)
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


# ----------------------------------------------------------------------
# Explain-analyze row counts: id on/off must agree operator by operator
# ----------------------------------------------------------------------
_EXPLAIN_QUERIES = (
    "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, y) and (y, ∈, DEPARTMENT)",
    "(x, WORKS-FOR, D0) or (x, WORKS-FOR, NEWCO)",
    "(x, CITES, x)",
    "(x, ∈, ENGINEER) and (x, EARNS, s) and (s, >, 31000)",
)


@pytest.mark.parametrize("text", _EXPLAIN_QUERIES)
def test_explain_analyze_rows_match_across_domains(text):
    view, _twin, _e, _r = _views("interned-mutated")
    previous = qexec.ID_DOMAIN
    try:
        qexec.ID_DOMAIN = True
        with_ids = explain_analyze(view, text, engine="compiled")
        qexec.ID_DOMAIN = False
        without = explain_analyze(view, text, engine="compiled")
    finally:
        qexec.ID_DOMAIN = previous
    assert with_ids.value == without.value
    assert [(s.formula, s.evals, s.actual_rows)
            for s in with_ids.steps] \
        == [(s.formula, s.evals, s.actual_rows) for s in without.steps]


# ----------------------------------------------------------------------
# Routing: when the id path may not run, it must not run
# ----------------------------------------------------------------------
class _UpperEcho(ComputedRelation):
    """A non-standard computed relation: (A, ECHOES, A) for every
    entity.  Its presence makes virtual triggering undecidable in id
    space, so executions must fall back to the string path."""

    def handles(self, pattern: Template) -> bool:
        return pattern.relationship == "ECHOES"

    def facts(self, pattern, store):
        for entity in store.entities():
            fact = Fact(entity, "ECHOES", entity)
            if pattern.match(fact) is not None:
                yield fact

    def estimate(self, pattern, store) -> int:
        return len(store.entities())


def _run_flag(view, text) -> bool:
    """Execute ``text`` uncached and report whether the execution ran
    in the integer domain."""
    _value, run = CompiledEvaluator(view).evaluate_with_stats(text)
    return run.id_domain


def test_id_domain_engages_on_interned_stores(id_domain):
    view, _twin, _e, _r = _views("interned")
    text = "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, y)"
    assert _run_flag(view, text) is id_domain


def test_plain_stores_stay_on_the_string_path(id_domain):
    view, _twin, _e, _r = _views("plain")
    assert _run_flag(view, "(x, ∈, EMPLOYEE)") is False


def test_custom_virtual_registry_falls_back_to_strings():
    db = _interned(False)
    view = db.view()
    view.virtual.register(_UpperEcho())
    assert _run_flag(view, "(x, ∈, EMPLOYEE)") is False
    # ...and the answers still fold the custom relation in correctly.
    compiled = CompiledEvaluator(view)
    reference = Evaluator(view)
    text = "(x, ECHOES, x) and (x, ∈, ENGINEER)"
    assert compiled.evaluate(text) == reference.evaluate(text)
