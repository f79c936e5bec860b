"""Differential equivalence of the probing stack.

The rebuilt probe path — interned lattice, compiled executor, plan
cache, selectivity-ordered waves, menu cache — must produce outcomes
*identical* to the original candidate-at-a-time wave process over the
networkx hierarchy: same waves, same menus, same critical failures,
same "no such database entities" diagnoses.  These tests compare full
probe outcomes across randomized databases and seeds.

The reference side (``reference_probe`` + ``GeneralizationHierarchy``)
needs networkx; the whole module skips on minimal installs.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("networkx")

from repro.browse.probe import GeneralizationHierarchy
from repro.browse.retraction import reference_probe
from repro.core.entities import ISA, MEMBER, SYN
from repro.db import Database
from repro.query.evaluate import Evaluator


def outcome_signature(result):
    """Everything observable about a probe outcome, in comparable
    form: the terminating value, every wave's attempted candidates and
    successes (queries, retraction paths, and values), the critical /
    exhausted flags, the entity diagnoses, and the rendered menu."""
    return {
        "succeeded": result.succeeded,
        "value": frozenset(result.value),
        "waves": [
            (wave.number,
             [(repr(c.query.templates), c.query.free, c.describe())
              for c in wave.attempted],
             [(repr(s.retracted.query.templates), s.describe(),
               frozenset(s.value))
              for s in wave.successes])
            for wave in result.waves
        ],
        "exhausted": result.exhausted,
        "critical": result.critical,
        "unknown": result.unknown_entities,
        "suggestions": result.spelling_suggestions,
        "menu": result.menu(),
    }


def reference_outcome(db, query, max_waves=25):
    """The original stack end to end: reference backtracking evaluator,
    networkx hierarchy, candidate-at-a-time wave loop, no caches."""
    hierarchy = GeneralizationHierarchy.from_store(db.closure().store)
    return reference_probe(Evaluator(db.view()), query, hierarchy,
                           max_waves=max_waves)


def random_database(seed):
    rng = random.Random(seed)
    db = Database(query_engine=rng.choice(["compiled", "reference"]))
    categories = [f"CAT{i}" for i in range(rng.randint(3, 8))]
    relations = [f"REL{i}" for i in range(rng.randint(1, 3))]
    members = [f"OBJ{i}" for i in range(rng.randint(2, 6))]
    for _ in range(rng.randint(2, 10)):
        db.add(rng.choice(categories), ISA, rng.choice(categories))
    for _ in range(rng.randint(0, 2)):
        db.add(rng.choice(relations), ISA, rng.choice(relations))
    if rng.random() < 0.4:
        db.add(rng.choice(categories), SYN, rng.choice(categories))
    for member in members:
        if rng.random() < 0.7:
            db.add(member, MEMBER, rng.choice(categories))
    for _ in range(rng.randint(0, 5)):
        db.add(rng.choice(members), rng.choice(relations),
               rng.choice(members))
    return db, rng, categories, relations, members


def random_queries(rng, categories, relations, members):
    queries = [
        f"(x, ∈, {rng.choice(categories)})",
        f"({rng.choice(members)}, ∈, {rng.choice(categories)})",
        f"(x, {rng.choice(relations)}, {rng.choice(members)})",
        f"(x, ∈, {rng.choice(categories)})"
        f" and (x, {rng.choice(relations)}, y)",
    ]
    if rng.random() < 0.5:
        queries.append(f"(x, ∈, GHOST{rng.randint(0, 3)})")
    if rng.random() < 0.5:
        # A near-miss spelling of a real category, for the
        # "did you mean" diagnosis.
        target = rng.choice(categories)
        queries.append(f"(x, ∈, {target[:-1]}X)")
    return queries


class TestProbeOutcomeEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_full_outcomes_match_reference(self, seed):
        db, rng, categories, relations, members = random_database(seed)
        for query in random_queries(rng, categories, relations, members):
            expected = outcome_signature(reference_outcome(db, query))
            actual = outcome_signature(db.probe(query))
            assert actual == expected, (seed, query)

    @pytest.mark.parametrize("seed", range(10))
    def test_engine_hatches_agree(self, seed):
        db, rng, categories, relations, members = random_database(seed)
        for query in random_queries(rng, categories, relations, members):
            compiled = outcome_signature(db.probe(query, engine="compiled"))
            reference = outcome_signature(db.probe(query, engine="reference"))
            assert compiled == reference, (seed, query)

    def test_outcomes_match_after_mutations(self):
        """Incremental lattice patches must not drift from a fresh
        reference build."""
        db = Database()
        db.add("FRESHMAN", ISA, "STUDENT")
        db.add("JOHN", MEMBER, "STUDENT")
        db.probe("(x, ∈, FRESHMAN)")  # builds the lattice
        db.add("STUDENT", ISA, "PERSON")
        db.add("SENIOR", ISA, "STUDENT")
        db.add("MARY", MEMBER, "PERSON")
        for query in ("(x, ∈, SENIOR)", "(x, ∈, FRESHMAN)",
                      "(MARY, ∈, STUDENT)"):
            expected = outcome_signature(reference_outcome(db, query))
            assert outcome_signature(db.probe(query)) == expected, query

    def test_max_waves_abandonment_matches(self):
        from repro.datasets.synthetic import deep_retraction_workload

        facts, query = deep_retraction_workload(depth=8)
        db = Database()
        for fact in facts:
            db.add_fact(fact)
        for max_waves in (1, 3, 25):
            expected = outcome_signature(
                reference_outcome(db, query, max_waves=max_waves))
            actual = outcome_signature(
                db.probe(query, max_waves=max_waves))
            assert actual == expected, max_waves


class TestMenuCache:
    def test_mutation_invalidates_menu(self):
        db = Database()
        db.add("FRESHMAN", ISA, "STUDENT")
        assert not db.probe("(x, ∈, FRESHMAN)").successes
        db.add("JOHN", MEMBER, "STUDENT")
        outcome = db.probe("(x, ∈, FRESHMAN)")
        assert [s.value for s in outcome.successes] == [{("JOHN",)}]
