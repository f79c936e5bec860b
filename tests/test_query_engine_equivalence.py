"""Randomized query-engine equivalence suite.

The compiled set-at-a-time executor (:mod:`repro.query.exec`) and the
reference tuple-at-a-time evaluator (:mod:`repro.query.evaluate`)
implement the same §2.7 semantics with very different machinery.  This
suite drives both over seeded random formulas — atoms with constants,
variables, repeated variables, and virtual relationships, combined
with ∧, ∨, ∃, ∀ — against every worked dataset plus random heaps, and
asserts the engines agree *exactly*: same answer sets on safe queries,
same :class:`~repro.core.errors.QueryError` type and message on unsafe
ones.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import QueryError
from repro.core.facts import Variable
from repro.db import Database
from repro.datasets import books, movies, music, paper, university
from repro.datasets.synthetic import random_heap
from repro.query import CompiledEvaluator
from repro.query.evaluate import Evaluator
from repro.query.ast import And, Formula, Or, Query, atom, exists, forall

SEEDS = range(24)
QUERIES_PER_CASE = 6

X, Y, Z = (Variable(name) for name in "xyz")
VARIABLES = (X, Y, Z)
QUANTIFIED = Variable("w")


def _heap_database() -> Database:
    """A loose random heap with a little hierarchy so rules fire."""
    database = Database()
    for fact in random_heap(40, 12, 5, seed=7):
        database.add_fact(fact)
    database.add("E0", "∈", "C0")
    database.add("E1", "∈", "C0")
    database.add("C0", "≺", "C1")
    return database


_DATASETS = {
    "books": books.load,
    "music": music.load,
    "paper": paper.load,
    "university": university.load,
    "movies": movies.load,
    "heap": _heap_database,
}

_VIEW_CACHE = {}


def _view(name):
    """Load each dataset once; its closure is the expensive part."""
    if name not in _VIEW_CACHE:
        view = _DATASETS[name]().view()
        entities, relationships = set(), set()
        for fact in view.store:
            entities.add(fact.source)
            entities.add(fact.target)
            relationships.add(fact.relationship)
        _VIEW_CACHE[name] = (view, sorted(entities), sorted(relationships))
    return _VIEW_CACHE[name]


# ----------------------------------------------------------------------
# Random formula generation
# ----------------------------------------------------------------------
def _random_term(rng, entities):
    if rng.random() < 0.45:
        return rng.choice(VARIABLES)
    return rng.choice(entities)


def _random_atom(rng, entities, relationships):
    roll = rng.random()
    if roll < 0.70:
        relationship = rng.choice(relationships)
    elif roll < 0.85:
        relationship = "≠"          # the virtual inequality idiom
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


def _outcome(evaluator, query):
    """The observable result: the value, or the error type + message."""
    try:
        return ("value", evaluator.evaluate(query))
    except QueryError as error:
        return ("QueryError", str(error))


@pytest.mark.parametrize("dataset", sorted(_DATASETS))
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_on_random_formulas(dataset, seed):
    view, entities, relationships = _view(dataset)
    compiled = CompiledEvaluator(view)
    reference = Evaluator(view)
    rng = random.Random(f"{dataset}-{seed}")
    for _ in range(QUERIES_PER_CASE):
        formula = _random_formula(rng, entities, relationships)
        query = Query.of(formula)
        expected = _outcome(reference, query)
        actual = _outcome(compiled, query)
        assert actual == expected, \
            f"seed {seed}, dataset {dataset}: {query}"
        if expected[0] == "value":
            # succeeds/ask agreement rides along for free.
            assert compiled.succeeds(query) == reference.succeeds(query)
            if query.is_proposition:
                assert compiled.ask(query) == reference.ask(query)


@pytest.mark.parametrize("dataset", sorted(_DATASETS))
def test_random_generation_exercises_safe_queries(dataset):
    """Guard against the generator drifting into all-unsafe output,
    which would turn the suite above into a no-op."""
    from repro.query import check_safety

    _view_, entities, relationships = _view(dataset)
    safe = 0
    for seed in SEEDS:
        rng = random.Random(f"{dataset}-{seed}")
        for _ in range(QUERIES_PER_CASE):
            formula = _random_formula(rng, entities, relationships)
            try:
                check_safety(formula)
            except QueryError:
                continue
            safe += 1
    assert safe >= len(SEEDS), \
        f"{dataset}: only {safe} safe random queries across all seeds"
