"""Differential equivalence of the probing stack.

The production probe path — interned lattice, compiled executor, a
wave answered as one join per variable skeleton — must produce outcomes
*identical* to the original candidate-at-a-time wave process over the
networkx hierarchy: same waves, same menus, same critical failures,
same "no such database entities" diagnoses.  These tests compare full
probe outcomes across randomized databases and seeds, on every store
layout a workload serves from (one interned generation; generation +
overlay + tombstones; an overlay past the budget; a service snapshot
held across a fold), against the original process run over a hash
store of the same heap.

The reference side (``reference_probe`` + ``GeneralizationHierarchy``)
needs networkx; the whole module skips on minimal installs.
"""

from __future__ import annotations

import random
import weakref

import pytest

pytest.importorskip("networkx")

from repro.browse.hierarchy import GeneralizationHierarchy
from repro.browse.retraction import probe, reference_probe
from repro.core import deadline
from repro.core.entities import BOTTOM, ISA, MEMBER, SYN
from repro.core.errors import DeadlineExceeded
from repro.core.facts import Fact
from repro.core.interned import OVERLAY_BUDGET
from repro.db import Database
from repro.query.compile import compile_query
from repro.query.evaluate import Evaluator
from repro.query.exec import CompiledEvaluator, execute_plan
from repro.serve import DatabaseService

from .hash_reference import hash_twin


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
    networkx hierarchy, candidate-at-a-time wave loop, no caches — over
    ``db``'s heap closed by the reference engine on a hash store
    (:func:`~tests.hash_reference.hash_twin`)."""
    version = (db.facts.version, db.composition_limit)
    held = _TWINS.get(db)
    if held is None or held[0] != version:
        twin = hash_twin(db)
        held = _TWINS[db] = (version, twin, Evaluator(twin.view),
                             GeneralizationHierarchy.from_store(twin.closure))
    _version, _twin, evaluator, hierarchy = held
    return reference_probe(evaluator, query, hierarchy, max_waves=max_waves)


#: database -> (its heap's version and limit, hash twin, the reference
#: evaluator over it, its hierarchy), so the queries of one state close
#: the heap once.
_TWINS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


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

    def test_a_composed_fact_witnesses_a_retraction(self):
        """Under ``limit(2)`` nothing stored relates ANN to CAT: the
        composed ``(ANN, LIKES.BOB.KNOWS, CAT)`` is the only witness of
        ``(ANN, Δ, CAT)``, the retraction of ``(ANN, HATES, CAT)``."""
        db = Database()
        for fact in (("ANN", "LIKES", "BOB"), ("BOB", "KNOWS", "CAT"),
                     ("EVE", "HATES", "DAN")):
            db.add(*fact)
        query = "(ANN, HATES, CAT)"
        assert len(db.probe(query).waves) == 2
        db.limit(2)
        outcome = db.probe(query)
        assert outcome_signature(outcome) \
            == outcome_signature(reference_outcome(db, query))
        [wave] = outcome.waves
        assert [s.describe() for s in wave.successes] \
            == ["Δ instead of HATES"]
        for query in ("(ANN, HATES, x)", "(x, HATES, CAT)",
                      "(ANN, LIKES.BOB.KNOWS, DAN)"):
            assert outcome_signature(db.probe(query)) == outcome_signature(
                reference_outcome(db, query)), query

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


class TestAMutationIsVisibleToTheNextProbe:
    """Nothing in process remembers a menu: a probe after a write is
    computed from the written heap."""

    def test_mutation_invalidates_menu(self):
        db = Database()
        db.add("FRESHMAN", ISA, "STUDENT")
        assert not db.probe("(x, ∈, FRESHMAN)").successes
        db.add("JOHN", MEMBER, "STUDENT")
        outcome = db.probe("(x, ∈, FRESHMAN)")
        assert [s.value for s in outcome.successes] == [{("JOHN",)}]


# ----------------------------------------------------------------------
# The store every workload serves from
# ----------------------------------------------------------------------
def plain_copy(db):
    """A never-compacted reference-engine model of ``db``'s heap."""
    return Database(list(db.facts), with_axioms=False,
                    query_engine="reference")


def random_writes(rng, relations, members, db):
    """``(verb, fact)`` steps for a compacted store: removals of
    generation facts (tombstones — data facts are what witness a
    ``∇`` / ``Δ`` seed) and additions the generation never saw, some
    naming an entity its interner never saw."""
    data = [f for f in db.facts if f[1] in relations or f[1] == MEMBER]
    rng.shuffle(data)
    steps = [("remove", fact) for fact in data[:rng.randint(1, 3)]]
    for n in range(rng.randint(1, 4)):
        target = rng.choice(members + [f"NEW{n}"])
        steps.append(("add", Fact(rng.choice(members),
                                  rng.choice(relations), target)))
    rng.shuffle(steps)
    return steps


def apply(steps, *databases):
    for verb, fact in steps:
        for db in databases:
            if verb == "add":
                db.add_fact(fact)
            else:
                db.remove_fact(fact)


def runs_in_id_domain(db, query):
    """Whether ``query``'s rows were decoded through the interner of the
    generation ``db``'s view reads."""
    view = db.view()
    table, _run = execute_plan(compile_query(query, view), view)
    return table.codec.interner is view.store.generation.interner


class TestStoreLayouts:
    """The 25-seed outcome comparison again, with the probed database
    on each layout and the reference a plain model of the same heap."""

    @pytest.mark.parametrize("layout",
                             ["compacted", "overlay", "over-budget"])
    @pytest.mark.parametrize("seed", range(25))
    def test_full_outcomes_match_reference(self, seed, layout):
        db, rng, categories, relations, members = random_database(seed)
        db.query_engine = "compiled"
        db.view()
        db.compact_store()
        model = plain_copy(db)
        if layout != "compacted":
            steps = random_writes(rng, relations, members, db)
            if layout == "over-budget":
                steps += [("add", Fact(f"BULK{n}", relations[0], members[0]))
                          for n in range(OVERLAY_BUDGET + 1)]
            apply(steps, db, model)
        queries = random_queries(rng, categories, relations, members)
        # Every layout stays on the generation's ids, past the budget
        # included: the budget only sets how often a writer folds.
        assert runs_in_id_domain(db, queries[0])
        for query in queries:
            expected = outcome_signature(reference_outcome(model, query))
            assert outcome_signature(db.probe(query)) == expected, \
                (seed, layout, query)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_snapshot_held_across_a_fold(self, seed):
        db, rng, categories, relations, members = random_database(seed)
        before = plain_copy(db)
        after = plain_copy(db)
        queries = random_queries(rng, categories, relations, members)
        service = DatabaseService(db)
        try:
            held = service.read_view()
            burst = [Fact(f"BULK{n}", relations[0], members[0])
                     for n in range(OVERLAY_BUDGET + 1)]
            service.add_facts(burst)
            after.add_facts(burst)
            steps = random_writes(rng, relations, members, after)
            for verb, fact in steps:
                getattr(service, verb)(*fact)
            apply(steps, after)
            assert service.stats()["folds"] >= 1
            current = service.read_view()
            assert held.facts.generation is not current.facts.generation
            for query in queries:
                for snap, model in ((held, before), (current, after)):
                    assert runs_in_id_domain(snap, query)
                    expected = outcome_signature(
                        reference_outcome(model, query))
                    assert outcome_signature(
                        snap.probe(query, engine="compiled")) == expected, \
                        (seed, query)
        finally:
            service.close()

    def test_endpoint_seeds_honour_tombstones_and_the_overlay(self):
        """``(∇, LIKES, BOB)`` loses its only witness to a tombstone;
        ``(∇, LIKES, HAL)`` has one only in the overlay, naming an
        entity the generation's interner never saw."""
        db = Database()
        for fact in (("ANN", "LIKES", "BOB"), ("EVE", "KNOWS", "BOB"),
                     ("CAT", "LIKES", "DAN"), ("EVE", "KNOWS", "DAN")):
            db.add(*fact)
        db.view()
        db.compact_store()
        steps = [("remove", Fact("ANN", "LIKES", "BOB")),
                 ("add", Fact("GUS", "LIKES", "HAL")),
                 ("add", Fact("EVE", "KNOWS", "HAL"))]
        model = plain_copy(db)
        apply(steps, db, model)
        assert db.facts.tombstones == 1 and db.overlay_size > 1
        for query in ("(EVE, LIKES, BOB)", "(EVE, LIKES, DAN)",
                      "(EVE, LIKES, HAL)"):
            assert runs_in_id_domain(db, query)
            expected = outcome_signature(reference_outcome(model, query))
            assert outcome_signature(db.probe(query)) == expected, query

        def bottom_source_succeeds(query):
            return f"{BOTTOM} instead of EVE" in [
                s.describe() for s in db.probe(query).successes]

        assert not bottom_source_succeeds("(EVE, LIKES, BOB)")
        assert bottom_source_succeeds("(EVE, LIKES, DAN)")
        assert bottom_source_succeeds("(EVE, LIKES, HAL)")


class TestWaves:
    @pytest.mark.parametrize("engine", [CompiledEvaluator, Evaluator])
    def test_a_deadline_expiring_inside_a_wave_raises(self, engine):
        """Never a partial menu: the failed query is evaluated in
        time, the wave is not."""
        class ExpiresInTheWave(engine):
            def evaluate_wave(self, candidates):
                with deadline.deadline_scope(0.0):
                    return super().evaluate_wave(candidates)

        db = Database()
        db.add("FRESHMAN", ISA, "STUDENT")
        db.add("JOHN", MEMBER, "STUDENT")
        assert db.probe("(x, ∈, FRESHMAN)").successes
        with pytest.raises(DeadlineExceeded):
            probe(ExpiresInTheWave(db.view()), "(x, ∈, FRESHMAN)",
                  db.hierarchy())

    def test_a_wave_is_fewer_joins_than_candidates(self):
        db = Database()
        db.add("JOHN", "LIKES", "MARY")
        db.add("TOM", "KNOWS", "SUE")
        wave = db.probe("(TOM, LIKES, SUE)").waves[0]
        assert len(wave.attempted) == 3 and wave.joins == 1
        wave = db.probe("(TOM, LIKES, SUE)", engine="reference").waves[0]
        assert len(wave.attempted) == wave.joins == 3

    def test_spelling_suggestions_are_computed_once_per_entity(self):
        """``closest_known`` sorts and scans every entity name."""
        db = Database()
        db.add("FRESHMAN", ISA, "STUDENT")
        calls = []

        class Counting(GeneralizationHierarchy):
            def closest_known(self, name, *args, **kwargs):
                calls.append(name)
                return super().closest_known(name, *args, **kwargs)

        outcome = probe(db.evaluator(), "(x, ∈, FRESHMEN)",
                        Counting.from_store(db.closure().store))
        assert outcome.spelling_suggestions == {"FRESHMEN": ("FRESHMAN",)}
        assert "FRESHMEN" in calls
        assert calls == list(outcome.unknown_entities)
