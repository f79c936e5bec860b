"""Randomized interned-vs-hash store equivalence suite.

:class:`~repro.core.interned.InternedFactStore` replaces the hash
store's dict-of-sets indexes with interned-id columns and CSR offset
maps, and feeds the planner exact counts — an entirely different
retrieval machine that must be *observationally identical*.  Every
:class:`~repro.db.Database` stores on generations, so the hash side is
built here: a :class:`~repro.core.store.FactStore` of the same facts,
or a database's :func:`~tests.hash_reference.hash_twin` (its closure by
the reference engine over a hash store).  This suite drives both sides
over seeded random templates, queries, closures, and provenance across
every worked dataset plus random heaps, asserting bit-identical
results:

* store probes — ``match`` / ``lookup_many_ids`` / ``solutions`` /
  ``facts_mentioning`` / ``count_estimate`` agree fact-for-fact;
* full query evaluation — a database, as loaded and compacted, answers
  random formulas under both query engines exactly as the reference
  engine does over its hash twin;
* closure — all three rule engines produce the same closure (and the
  same provenance reachability) whether seeded from a hash or an
  interned base;
* provenance — ``why`` renders the derivation trees of the reference
  engine's hash-store closure, before and after
  :meth:`~repro.db.Database.compact_store`.
"""

from __future__ import annotations

import random

import pytest

from repro.browse.navigation import navigate
from repro.core.facts import Fact, Template, Variable
from repro.core.interned import InternedFactStore
from repro.core.store import FactStore
from repro.db import Database
from repro.datasets import books, movies, music, paper, university
from repro.datasets.synthetic import random_heap
from repro.operators.ops import try_
from repro.query.ast import Query
from repro.query.evaluate import Evaluator
from repro.query.parser import parse_template

from .hash_reference import hash_twin
from .test_engine_equivalence import _context, _random_database
from .test_query_engine_equivalence import _outcome, _random_formula

SEEDS = range(12)
TEMPLATES_PER_CASE = 25
QUERIES_PER_CASE = 5

X, Y = Variable("x"), Variable("y")


def _heap_database(database: Database = None) -> Database:
    if database is None:
        database = Database()
    for heap_fact in random_heap(40, 12, 5, seed=7):
        database.add_fact(heap_fact)
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

_PAIR_CACHE = {}


def _pair(name):
    """(hash twin, the database as loaded, a compacted copy, entities,
    relationships).  The loaded one's first closure folds it onto one
    generation (no ``compact_store()``); the compacted one folded the
    loaded heap first."""
    if name not in _PAIR_CACHE:
        loaded = _DATASETS[name]()
        compacted = _DATASETS[name]().compact_store()
        twin = hash_twin(loaded)
        entities, relationships = set(), set()
        for heap_fact in twin.facts:
            entities.add(heap_fact.source)
            entities.add(heap_fact.target)
            relationships.add(heap_fact.relationship)
        _PAIR_CACHE[name] = (twin, loaded, compacted,
                             sorted(entities), sorted(relationships))
    return _PAIR_CACHE[name]


def _random_template(rng, entities, relationships) -> Template:
    """A random probe: each position is a constant or a variable, with
    repeated variables included (the paper's ``(x, CITES, x)``)."""
    def term(pool):
        roll = rng.random()
        if roll < 0.40:
            return rng.choice((X, Y))
        if roll < 0.55:
            return X           # bias toward repeats
        return rng.choice(pool)

    return Template(term(entities), term(relationships), term(entities))


def _binding_set(solutions):
    return {frozenset(b.items()) for b in solutions}


def _stored_twins(compacted: bool):
    """The base heap of the heap database after three steps — an add of
    an already-derived fact, a removal of a stored fact the rules still
    derive, and (``compacted``) a fold — beside a hash store of the
    facts it must hold.  The database's heap reads the ``STORED`` rows
    of its closure's generation, plus its overlay and tombstones."""
    database = _heap_database()
    database.add("E1", "∈", "C1")          # stored and derived
    database.view()
    if compacted:
        database.compact_store()
    assert database.add("E0", "∈", "C1")    # derived already
    assert database.remove_fact(Fact("E1", "∈", "C1"))
    if compacted:
        database.compact_store()
    reference = FactStore(_heap_database().facts)
    reference.add(Fact("E0", "∈", "C1"))
    return reference, database.facts


def _probe_pair(dataset):
    """(hash store, interned twin, entities, relationships).  Past the
    datasets, ``empty`` is a generation of no facts and ``cleared`` a
    cleared store, each given the heap's facts afterwards: everything
    lives in the overlay over an empty generation.  ``stored`` and
    ``stored-unfolded`` are a database's base heap, with and without
    ``compact_store()`` (:func:`_stored_twins`)."""
    if dataset.startswith("stored"):
        return (*_stored_twins(dataset == "stored"), *_pair("heap")[3:])
    if dataset in _DATASETS:
        twin, _loaded, _compacted, entities, relationships = _pair(dataset)
        return (twin.facts, InternedFactStore.from_facts(twin.facts),
                entities, relationships)
    twin, _loaded, _compacted, entities, relationships = _pair("heap")
    if dataset == "empty":
        interned = InternedFactStore.from_facts([])
    else:
        interned = InternedFactStore.from_facts(_pair("paper")[0].facts)
        interned.clear()
    assert all(map(interned.add, twin.facts))
    return twin.facts, interned, entities, relationships


# ----------------------------------------------------------------------
# Store probes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset",
                         sorted(_DATASETS) + ["empty", "cleared", "stored",
                                              "stored-unfolded"])
@pytest.mark.parametrize("seed", SEEDS)
def test_store_probes_identical(dataset, seed):
    reference, interned, entities, relationships = _probe_pair(dataset)
    assert type(reference) is FactStore
    assert len(interned) == len(reference)
    assert set(interned) == set(reference)
    assert interned.entities() == reference.entities()
    assert interned.relationships() == reference.relationships()
    rng = random.Random(f"{dataset}-{seed}")
    for _ in range(TEMPLATES_PER_CASE):
        probe = _random_template(rng, entities, relationships)
        expected = sorted(map(tuple, reference.match(probe)))
        assert sorted(map(tuple, interned.match(probe))) == expected, \
            f"match diverged on {probe!r}"
        ground = [c if isinstance(c, str) else None for c in probe]
        assert sorted(interned.lookup(*ground)) \
            == sorted(reference.lookup(*ground)), \
            f"lookup diverged on {probe!r}"
        assert (_binding_set(interned.solutions(probe))
                == _binding_set(reference.solutions(probe))), \
            f"solutions diverged on {probe!r}"
        # Exact counts: the interned store's estimate IS the answer
        # for single-variable-occurrence probes; repeated variables
        # filter below the per-position index count.
        count = interned.count_estimate(probe)
        if len(probe.variable_set()) == len(probe.variables()):
            assert count == len(expected), \
                f"count_estimate inexact on {probe!r}"
        else:
            assert count >= len(expected)
    # The executor's batched probe: generation ids decode to the names
    # the hash store answers with; it reads the generation rows the
    # store holds only (the overlay is the executor's to merge).
    codec = interned.id_codec()
    overlay = interned._overlay  # noqa: SLF001
    generation_side = FactStore(
        fact for fact in interned if fact not in overlay)
    assert sorted(map(codec.decode, interned.entity_id_domain(
        codec.encode))) == sorted(reference.entities())
    for _ in range(8):
        probe = _random_template(rng, entities, relationships)
        spec = "".join(letter for letter, c in zip("srt", probe)
                       if not isinstance(c, Variable))
        key = tuple(c for c in probe if not isinstance(c, Variable))
        [got] = interned.lookup_many_ids(
            spec, [tuple(map(codec.encode, key))])
        [expected] = generation_side.lookup_many_ids(spec, [key])
        assert sorted(tuple(map(codec.decode, match)) for match in got) \
            == sorted(map(tuple, expected)), f"diverged on {probe!r}"
    for entity in rng.sample(entities, min(6, len(entities))):
        assert (interned.facts_mentioning(entity)
                == reference.facts_mentioning(entity))


# ----------------------------------------------------------------------
# Full query evaluation against the hash twin
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset", sorted(_DATASETS))
@pytest.mark.parametrize("seed", SEEDS)
def test_compacted_database_answers_identically(dataset, seed):
    twin, loaded, compacted, entities, relationships = _pair(dataset)
    assert not twin.view.exact_counts
    assert set(twin.closure) == set(compacted.view().store) \
        == set(loaded.view().store)
    reference = Evaluator(twin.view)
    rng = random.Random(f"{dataset}-interned-{seed}")
    for _ in range(QUERIES_PER_CASE):
        formula = _random_formula(rng, entities, relationships)
        query = Query.of(formula)
        expected = _outcome(reference, query)
        for database in (loaded, compacted):
            assert isinstance(database.facts, InternedFactStore)
            assert database.view().exact_counts
            assert _outcome(database.evaluator(), query) == expected, \
                f"seed {seed}, dataset {dataset}: {query}"


@pytest.mark.parametrize("dataset", sorted(_DATASETS))
def test_compacted_database_api_surface(dataset):
    """match / navigate / try agree with the hash twin before and
    after compaction, and reference vs compiled query engines agree
    *on* the interned store."""
    twin, loaded, compacted, entities, _relationships = _pair(dataset)
    sample = sorted(entities)[:8]
    for entity in sample:
        pattern = f"({entity}, *, *)"
        expected_match = sorted(map(tuple, set(twin.view.match(
            parse_template(pattern)))))
        expected_try = sorted(map(tuple, try_(twin.view, entity)))
        expected_navigation = navigate(twin.view, pattern).entities()
        for database in (loaded, compacted):
            assert (sorted(map(tuple, database.match(pattern)))
                    == expected_match)
            assert (sorted(map(tuple, database.try_(entity)))
                    == expected_try)
            assert database.navigate(pattern).entities() \
                == expected_navigation
    compiled = compacted.query("(x, ≺, y)")
    reference_db = _DATASETS[dataset]().compact_store()
    reference_db.query_engine = "reference"
    assert reference_db.query("(x, ≺, y)") == compiled


# ----------------------------------------------------------------------
# Closure engines seeded from an interned base
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_closure_engines_agree_across_stores(seed):
    from repro.rules.builtin import STANDARD_RULES
    from repro.rules.dispatch import dispatched_closure
    from repro.rules.engine import naive_closure, semi_naive_closure

    facts = _random_database(seed)
    context = _context(facts)
    engines = (naive_closure, semi_naive_closure, dispatched_closure)
    results = []
    for engine in engines:
        for base in (FactStore(facts),
                     InternedFactStore.from_facts(facts)):
            results.append(engine(base, STANDARD_RULES, context,
                                  trace=True))
    baseline = set(results[0].store)
    for result in results[1:]:
        assert set(result.store) == baseline
        assert result.base_count == results[0].base_count
        assert (set(result.provenance or ())
                == set(results[0].provenance or ()))


@pytest.mark.parametrize("dataset", sorted(_DATASETS))
def test_provenance_renders_identically(dataset):
    """``why`` renders the reference engine's derivation trees over a
    hash store, before and after compaction."""
    loaded = _DATASETS[dataset](Database(trace=True))
    compacted = _DATASETS[dataset](Database(trace=True)).compact_store()
    twin = hash_twin(loaded, trace=True)
    derived = sorted(f for f in twin.standard.store
                     if f not in twin.facts)[:5]
    assert derived
    for derived_fact in derived:
        expected = str(twin.why(derived_fact))
        assert str(loaded.why(derived_fact)) == expected
        assert str(compacted.why(derived_fact)) == expected


def test_attach_preserves_store_equivalence():
    """Shared-memory attach is one more representation change that
    must not change a single answer (single-process check; the
    cross-process version lives in the pool suite)."""
    twin, _loaded, _compacted, entities, relationships = _pair("movies")
    reference = twin.facts
    source = InternedFactStore.from_facts(reference)
    file_name = source.generation.share()
    try:
        attached = InternedFactStore.attach(file_name)
        try:
            rng = random.Random("attach-equivalence")
            for _ in range(TEMPLATES_PER_CASE):
                probe = _random_template(rng, entities, relationships)
                assert (sorted(map(tuple, attached.match(probe)))
                        == sorted(map(tuple, reference.match(probe))))
            # Attached stores stay mutable through their overlay.
            extra = Fact("ATTACHED", "∈", "PROBE")
            attached.add(extra)
            assert extra in attached
            assert extra not in reference
        finally:
            attached.close()
    finally:
        from repro.core.interned import unlink_generation

        source.close()
        unlink_generation(file_name)
