"""Tests for the interned generalization lattice.

Four layers:

* unit tests of lattice-specific behavior (incremental patching,
  merge rebuilds, store-bound views, structural copies);
* a randomized multi-seed differential suite asserting every §5.1
  answer — broader-than, minimal generalizations/specializations,
  synonym collapse, Δ/∇ fallback, chain depth — identical to the
  networkx reference ``GeneralizationHierarchy`` (skipped when
  networkx is not installed);
* regression tests for the database's lattice lifecycle: non-``≺``
  mutations must not rebuild, ``compact_store`` must not drop the
  structure, and snapshots must not see later patches;
* the same lifecycle through :class:`~repro.serve.DatabaseService`:
  the master owns the structure, every published snapshot shares it
  and none ever rebuilds.
"""

from __future__ import annotations

import random

import pytest

from repro.browse.lattice import GeneralizationLattice
from repro.core.entities import BOTTOM, ISA, SYN, TOP
from repro.core.facts import Fact
from repro.core.store import FactStore
from repro.db import Database


def lattice_of(*pairs, extra_entities=()):
    facts = [Fact(s, ISA, t) for s, t in pairs]
    store = FactStore(facts)
    for entity in extra_entities:
        store.add(Fact(entity, "SELF", entity))
    return GeneralizationLattice.from_store(store)


# ----------------------------------------------------------------------
# Lattice-specific behavior
# ----------------------------------------------------------------------
class TestIncrementalPatching:
    def test_acyclic_edge_patches_in_place(self):
        lattice = lattice_of(("A", "B"))
        assert lattice.add_isa_pairs([("B", "C")]) == "patched"
        assert lattice.generalizes("C", "A")
        assert lattice.minimal_generalizations("B") == {"C"}
        stats = lattice.stats()
        assert stats["patches"] == 1
        assert stats["merge_rebuilds"] == 0

    def test_implied_edge_is_free(self):
        lattice = lattice_of(("A", "B"), ("B", "C"))
        before = lattice.stats()["cover_edges"]
        assert lattice.add_isa_pairs([("A", "C")]) == "patched"
        assert lattice.stats()["cover_edges"] == before
        assert lattice.minimal_generalizations("A") == {"B"}

    def test_known_pair_is_noop(self):
        lattice = lattice_of(("A", "B"))
        assert lattice.add_isa_pairs([("A", "B")]) == "noop"

    def test_cycle_creating_edge_rebuilds_and_merges(self):
        lattice = lattice_of(("X", "Y"), ("X", "P"))
        assert lattice.add_isa_pairs([("Y", "X")]) == "rebuilt"
        assert lattice.synonym_class("X") == {"X", "Y"}
        assert lattice.minimal_generalizations("Y") == {"P"}
        assert lattice.stats()["merge_rebuilds"] == 1

    def test_patch_brings_in_new_entities(self):
        lattice = lattice_of(("A", "B"))
        lattice.add_isa_pairs([("NEW1", "NEW2"), ("NEW2", "A")])
        assert lattice.generalizes("B", "NEW1")
        assert lattice.minimal_generalizations("NEW1") == {"NEW2"}

    def test_patched_equals_rebuilt_on_random_sequences(self):
        for seed in range(20):
            rng = random.Random(seed)
            names = [f"E{i}" for i in range(10)]
            pairs = [(rng.choice(names), rng.choice(names))
                     for _ in range(25)]
            incremental = GeneralizationLattice(pairs[:5], names)
            for start in range(5, len(pairs), 4):
                incremental.add_isa_pairs(pairs[start:start + 4])
            rebuilt = GeneralizationLattice(pairs, names)
            for entity in names:
                assert incremental.minimal_generalizations(entity) \
                    == rebuilt.minimal_generalizations(entity), seed
                assert incremental.minimal_specializations(entity) \
                    == rebuilt.minimal_specializations(entity), seed
                assert incremental.synonym_class(entity) \
                    == rebuilt.synonym_class(entity), seed
                for other in names:
                    assert incremental.generalizes(entity, other) \
                        == rebuilt.generalizes(entity, other), seed


class TestViews:
    def test_with_store_shares_structure(self):
        lattice = lattice_of(("A", "B"))
        store = FactStore([Fact("A", ISA, "B"), Fact("Z", "R", "Z")])
        view = lattice.with_store(store)
        assert view.shares_core(lattice)
        assert view.knows("Z") and not lattice.knows("Z")
        lattice.add_isa_pairs([("B", "C")])
        # In-place patches are visible through every view of the core.
        assert view.generalizes("C", "A")

    def test_structural_copy_is_isolated(self):
        lattice = lattice_of(("A", "B"))
        copy = lattice.structural_copy()
        assert not copy.shares_core(lattice)
        copy.add_isa_pairs([("B", "C")])
        assert copy.generalizes("C", "A")
        assert not lattice.generalizes("C", "A")


# ----------------------------------------------------------------------
# Differential equivalence against the networkx reference
# ----------------------------------------------------------------------
def random_pairs(rng, n_entities, n_edges, cycle_bias):
    names = [f"N{i}" for i in range(n_entities)]
    pairs = []
    for _ in range(n_edges):
        source, target = rng.choice(names), rng.choice(names)
        pairs.append((source, target))
        if rng.random() < cycle_bias:
            pairs.append((target, source))  # synonym-class material
    # Occasionally touch the lattice endpoints and reflexive pairs,
    # which both implementations must filter out.
    if rng.random() < 0.5:
        pairs.append((rng.choice(names), TOP))
        pairs.append((BOTTOM, rng.choice(names)))
        loop = rng.choice(names)
        pairs.append((loop, loop))
    return names, pairs


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_networkx_reference(self, seed):
        probe = pytest.importorskip("networkx") and __import__(
            "repro.browse.probe", fromlist=["GeneralizationHierarchy"])
        rng = random.Random(seed)
        names, pairs = random_pairs(
            rng, n_entities=rng.randint(2, 12),
            n_edges=rng.randint(0, 30), cycle_bias=0.15)
        known = set(names) | {"EXTRA", TOP, BOTTOM}
        reference = probe.GeneralizationHierarchy(pairs, known)
        lattice = GeneralizationLattice(pairs, known)
        queried = list(known) + ["GHOST"]
        for entity in queried:
            assert lattice.knows(entity) == reference.knows(entity)
            assert lattice.synonym_class(entity) \
                == reference.synonym_class(entity), (seed, entity)
            assert lattice.minimal_generalizations(entity) \
                == reference.minimal_generalizations(entity), (seed, entity)
            assert lattice.minimal_specializations(entity) \
                == reference.minimal_specializations(entity), (seed, entity)
            assert lattice.generalization_chain_depth(entity) \
                == reference.generalization_chain_depth(entity), (seed, entity)
            for other in queried:
                assert lattice.generalizes(entity, other) \
                    == reference.generalizes(entity, other), (seed, entity, other)
                assert lattice.strictly_generalizes(entity, other) \
                    == reference.strictly_generalizes(entity, other), (
                        seed, entity, other)

    def test_closest_known_matches_reference(self):
        probe = pytest.importorskip("networkx") and __import__(
            "repro.browse.probe", fromlist=["GeneralizationHierarchy"])
        known = ["EMPLOYEE", "EMPLOYER", "DEPARTMENT", "PERSON"]
        reference = probe.GeneralizationHierarchy([], known)
        lattice = GeneralizationLattice([], known)
        for misspelling in ("EMPLOYE", "PRESON", "XQZW"):
            assert lattice.closest_known(misspelling) \
                == reference.closest_known(misspelling)


# ----------------------------------------------------------------------
# Database lattice lifecycle
# ----------------------------------------------------------------------
class TestDatabaseLifecycle:
    def test_non_isa_mutations_do_not_rebuild(self):
        """The over-invalidation regression: mutations that touch no
        generalization/synonym fact must neither rebuild nor patch."""
        db = Database()
        db.add("A", ISA, "B")
        db.hierarchy()
        assert db.stats()["hierarchy"]["rebuilds"] == 1
        for i in range(10):
            db.add(f"EMP{i}", "WORKS-FOR", "SALES")
        hierarchy = db.stats()["hierarchy"]
        assert hierarchy["rebuilds"] == 1
        assert hierarchy["patches"] == 0
        assert hierarchy["cached"]

    def test_new_isa_fact_patches_instead_of_rebuilding(self):
        db = Database()
        db.add("A", ISA, "B")
        assert db.hierarchy().minimal_generalizations("A") == {"B"}
        db.add("B", ISA, "C")
        assert db.hierarchy().minimal_generalizations("B") == {"C"}
        hierarchy = db.stats()["hierarchy"]
        assert hierarchy["rebuilds"] == 1
        assert hierarchy["patches"] >= 1

    def test_many_isa_insertions_are_one_patch(self):
        """The lattice is patched by the next ``hierarchy()``, in one
        pass over the ``≺`` facts however many insertions came first —
        not once per insertion."""
        db = Database()
        db.add("A", ISA, "B")
        db.hierarchy()
        for i in range(64):
            db.add(f"LEAF{i}", ISA, "A")
        assert db.stats()["hierarchy"]["patches"] == 0
        h = db.hierarchy()
        assert h.minimal_generalizations("LEAF63") == {"A"}
        assert h.generalizes("B", "LEAF0")
        hierarchy = db.stats()["hierarchy"]
        assert (hierarchy["rebuilds"], hierarchy["patches"]) == (1, 1)
        db.hierarchy()
        assert db.stats()["hierarchy"]["patches"] == 1

    def test_insertion_then_deletion_with_equal_isa_count(self):
        """An unpatched insertion followed by a deletion that brings
        the ``≺`` count back to what the lattice ingested must not
        read as "nothing changed"."""
        db = Database()
        db.add("A", ISA, "B")
        db.add("C", ISA, "D")
        db.hierarchy()
        db.add("E", ISA, "F")
        db.remove_fact(Fact("C", ISA, "D"))
        h = db.hierarchy()
        assert h.generalizes("F", "E")
        assert not h.generalizes("D", "C")
        assert h.minimal_generalizations("A") == {"B"}

    def test_synonym_fact_maintains_hierarchy(self):
        db = Database()
        db.add("JOHN", ISA, "PERSON")
        db.hierarchy()
        db.add("JOHN", SYN, "JOHNNY")
        h = db.hierarchy()
        assert h.synonym_class("JOHN") == {"JOHN", "JOHNNY"}
        assert h.minimal_generalizations("JOHNNY") == {"PERSON"}

    def test_isa_deletion_invalidates(self):
        db = Database()
        db.add("A", ISA, "B")
        db.add("B", ISA, "C")
        assert db.hierarchy().generalizes("C", "A")
        db.remove_fact(Fact("B", ISA, "C"))
        assert not db.hierarchy().generalizes("C", "A")
        assert db.stats()["hierarchy"]["rebuilds"] == 2

    def test_lattice_survives_compaction(self):
        db = Database()
        db.add("A", ISA, "B")
        db.hierarchy()
        db.compact_store()
        assert db.hierarchy().minimal_generalizations("A") == {"B"}
        assert db.stats()["hierarchy"]["rebuilds"] == 1

    def test_snapshot_does_not_see_later_patches(self):
        db = Database()
        db.add("A", ISA, "B")
        db.hierarchy()
        snap = db.snapshot()
        db.add("B", ISA, "C")
        assert db.hierarchy().generalizes("C", "A")
        assert not snap.hierarchy().generalizes("C", "A")
        assert snap.hierarchy().minimal_generalizations("B") == {TOP}

    def test_hierarchy_answers_probe_after_patch(self):
        db = Database()
        db.add("STUDENT", ISA, "PERSON")
        db.add("JOHN", "∈", "PERSON")
        db.hierarchy()
        db.add("FRESHMAN", ISA, "STUDENT")
        outcome = db.probe("(x, ∈, FRESHMAN)")
        assert not outcome.succeeded
        assert outcome.waves  # retracted upward through the lattice


# ----------------------------------------------------------------------
# The service's master owns the lattice; published snapshots share it
# ----------------------------------------------------------------------
def _hierarchy_of(service):
    """The published snapshot's lattice counters, read *before* any
    probe could have built anything."""
    return service.read_view().stats()["hierarchy"]


def _menu_matches_reference(service, query):
    pytest.importorskip("networkx")
    from .test_probe_equivalence import outcome_signature, reference_outcome

    snapshot = service.read_view()
    assert outcome_signature(service.probe(query)) \
        == outcome_signature(reference_outcome(snapshot, query))


class TestServiceOwnsTheLattice:
    @pytest.fixture()
    def service(self):
        from repro.serve import DatabaseService

        db = Database()
        db.add("STUDENT", ISA, "PERSON")
        db.add("FRESHMAN", ISA, "STUDENT")
        db.add("JOHN", "∈", "PERSON")
        service = DatabaseService(db)
        try:
            yield service
        finally:
            service.close()

    def test_first_snapshot_is_published_with_its_lattice(self, service):
        hierarchy = _hierarchy_of(service)
        assert hierarchy["cached"] is True
        assert hierarchy["rebuilds"] == 0

    def test_non_isa_writes_publish_without_rebuilding(self, service):
        shared = service.read_view()._hierarchy
        assert service.add("MARY", "∈", "STUDENT")
        hierarchy = _hierarchy_of(service)
        assert hierarchy["cached"] is True
        assert hierarchy["rebuilds"] == 0
        assert service.remove("MARY", "∈", "STUDENT")
        hierarchy = _hierarchy_of(service)
        assert hierarchy["cached"] is True
        assert hierarchy["rebuilds"] == 0
        # Not a copy either: the very structure the master built once.
        assert service.read_view()._hierarchy.shares_core(shared)
        # …and the master never rebuilt or patched for them.
        master = service._db.stats()["hierarchy"]
        assert (master["rebuilds"], master["patches"]) == (1, 0)

    def test_isa_add_and_remove_reach_the_next_probe(self, service):
        query = "(x, ∈, SOPHOMORE)"
        assert service.add("SOPHOMORE", ISA, "STUDENT")
        assert _hierarchy_of(service)["rebuilds"] == 0
        outcome = service.probe(query)
        assert not outcome.succeeded and outcome.waves
        _menu_matches_reference(service, query)
        assert _hierarchy_of(service)["rebuilds"] == 0
        # The add patched the master's structure in place (a copy of
        # it: the previous snapshot still holds the old one).
        assert service._db.stats()["hierarchy"]["patches"] == 1

        assert service.remove("SOPHOMORE", ISA, "STUDENT")
        # The deletion's rebuild ran on the writer, before the publish.
        hierarchy = _hierarchy_of(service)
        assert hierarchy["cached"] is True
        assert hierarchy["rebuilds"] == 0
        assert service._db.stats()["hierarchy"]["rebuilds"] == 2
        _menu_matches_reference(service, query)
        _menu_matches_reference(service, "(x, ∈, FRESHMAN)")
        assert _hierarchy_of(service)["rebuilds"] == 0

    def test_a_batch_of_isa_adds_patches_once(self, service):
        """Lattice work on the writer is per publish, not per fact: a
        taxonomy load through ``add_facts`` copies the shared structure
        once and scans the ``≺`` facts once."""
        added = service.add_facts(
            [(f"CLASS{i}", ISA, "STUDENT") for i in range(64)])
        assert added == 64
        master = service._db.stats()["hierarchy"]
        assert (master["rebuilds"], master["patches"]) == (1, 1)
        assert _hierarchy_of(service)["rebuilds"] == 0
        _menu_matches_reference(service, "(x, ∈, CLASS63)")

    def test_earlier_snapshot_keeps_the_unpatched_structure(self, service):
        before = service.read_view()
        assert service.add("PERSON", ISA, "MAMMAL")
        after = service.read_view()
        assert after.hierarchy().generalizes("MAMMAL", "FRESHMAN")
        assert not before.hierarchy().generalizes("MAMMAL", "FRESHMAN")
        assert before.hierarchy().minimal_generalizations("PERSON") \
            == {TOP}
        assert not after.hierarchy().shares_core(before.hierarchy())
        assert before.stats()["hierarchy"]["rebuilds"] == 0
