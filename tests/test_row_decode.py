"""Whole-heap passes decode an interned store column by column, or not
at all.

The reference engine's seed (``seed_store``) and a checkpoint read
every fact of an interned store once, by iterating it: the
generation's columns are decoded as they are read and nothing is kept,
so a pass leaves no ``Fact`` per row behind.  A from-scratch closure
over an interned base joins on the base generation's ids and builds
the closure's generation from them
(``InternedFactStore.consume``), and a fold (``compact_store``)
rebuilds from the old generation's id columns: neither decodes a row.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro.core.entities import ISA, MEMBER
from repro.core.facts import Fact
from repro.core.interned import InternedFactStore
from repro.core.store import FactStore, seed_store
from repro.db import Database
from repro.storage.session import DurableSession
from repro.storage.snapshot import read_snapshot


def world_facts(employees: int = 30) -> list:
    facts = [Fact("EMPLOYEE", ISA, "PERSON")]
    for i in range(employees):
        facts.append(Fact(f"EMP{i}", MEMBER, "EMPLOYEE"))
        facts.append(Fact(f"EMP{i}", "WORKS-FOR", "DEPT0"))
    return facts


def churned() -> InternedFactStore:
    """A generation less one tombstone, plus one overlay fact: two
    facts discarded, one of them added back."""
    facts = world_facts()
    store = InternedFactStore.from_facts(facts, version=len(facts))
    store.discard(facts[1])
    store.discard(facts[2])
    store.add(Fact("EMP99", MEMBER, "EMPLOYEE"))
    store.add(facts[1])
    return store


class TestIteration:
    def test_iteration_is_the_store(self):
        """Each fact once: the generation less its tombstone, then the
        overlay."""
        store = churned()
        assert (store.tombstones, store.overlay_size) == (1, 2)
        expected = set(world_facts()) - {world_facts()[2]} \
            | {Fact("EMP99", MEMBER, "EMPLOYEE")}
        rows = list(store)
        assert len(rows) == len(set(rows)) == len(store)
        assert set(rows) == expected
        assert all(fact in store for fact in rows)


class TestSeed:
    def test_an_interned_base_seeds_a_hash_store(self):
        base = churned()
        seed = seed_store(base)
        assert type(seed) is FactStore
        assert seed.version == base.version
        assert set(seed) == set(base)
        assert set(seed.lookup(None, MEMBER, "EMPLOYEE")) \
            == {f for f in base if f[1:] == (MEMBER, "EMPLOYEE")}


class TestConsumingFold:
    def test_a_closure_over_an_interned_base_is_one_generation(self):
        plain = Database(world_facts())
        interned = Database(world_facts()).compact_store()
        closure = interned.standard_closure().store
        assert isinstance(closure, InternedFactStore)
        assert closure.overlay_size == 0
        assert interned.facts.generation is closure.generation
        assert set(interned.facts) == set(plain.facts)
        assert set(closure) == set(plain.standard_closure().store)
        assert interned.standard_closure().rule_firings \
            == plain.standard_closure().rule_firings


class TestCheckpoint:
    def test_a_checkpoint_pins_no_fact_per_base_fact(self, tmp_path):
        """The served master's shape: heap and closure compacted, the
        overlay churned, then written to the snapshot — the overlay
        and tombstones too.  What the checkpoint still holds once it
        returns is far below one ``Fact`` per base fact: a store that
        kept the facts it decoded would hold them all."""
        db = Database(world_facts(2000))
        db.view()
        db.compact_store()
        db.add("EMP9999", MEMBER, "EMPLOYEE")
        db.remove_fact(Fact("EMP3", "WORKS-FOR", "DEPT0"))
        assert db.facts.overlay_size == 2
        base_facts = len(db.facts.generation)
        assert base_facts > 4000
        with DurableSession(tmp_path) as session:
            gc.collect()
            tracemalloc.start()
            try:
                session.checkpoint(db)
                gc.collect()
                held, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        one_fact = sys.getsizeof(Fact("EMP0", MEMBER, "EMPLOYEE"))
        assert held < base_facts * one_fact / 10, held
        written = read_snapshot(tmp_path / "snapshot.json").facts
        assert len(written) == len(db.facts)
        assert set(written) == set(db.facts)
