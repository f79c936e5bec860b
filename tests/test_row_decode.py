"""Whole-heap passes decode an interned store column by column.

A closure's seed (``seed_store``), a fold (``compact_store``) and a
checkpoint read every fact of an interned store once.  They decode the
generation's columns (``InternedFactStore.rows``) instead of iterating
it, which would fill the generation's fact memo with one ``Fact`` per
row and keep it until the next fold.  A from-scratch closure over an
interned base grows a hash working store and ends in one fold that
consumes it.
"""

from __future__ import annotations

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


def memo(store) -> object:
    return store.generation._fact_memo  # noqa: SLF001


class TestRows:
    def test_rows_are_the_store_and_leave_the_memo(self):
        store = churned()
        assert (store.tombstones, store.overlay_size) == (1, 2)
        expected = set(world_facts()) - {world_facts()[2]} \
            | {Fact("EMP99", MEMBER, "EMPLOYEE")}
        rows = list(store.rows())
        assert memo(store) is None
        assert len(rows) == len(set(rows)) == len(store)
        assert set(rows) == expected == set(store)

    def test_a_hash_store_rows_are_its_facts(self):
        store = FactStore(world_facts())
        assert set(store.rows()) == set(world_facts())


class TestSeed:
    def test_an_interned_base_seeds_a_hash_store_without_the_memo(self):
        base = churned()
        seed = seed_store(base)
        assert type(seed) is FactStore
        assert seed.version == base.version
        assert memo(base) is None
        assert set(seed) == set(base.rows())
        assert set(seed.lookup(None, MEMBER, "EMPLOYEE")) \
            == {f for f in base.rows() if f[1:] == (MEMBER, "EMPLOYEE")}


class TestConsumingFold:
    def test_consume_empties_the_working_store(self):
        working = FactStore(world_facts())
        version = working.version
        folded = InternedFactStore.consume(working)
        assert len(working) == 0
        assert working.index_for("s") == {}
        assert folded.version == version
        assert folded.overlay_size == 0
        assert set(folded.rows()) == set(world_facts())

    def test_a_closure_over_an_interned_base_is_one_generation(self):
        plain = Database(world_facts())
        interned = Database(world_facts()).compact_store(closure=False)
        closure = interned.standard_closure().store
        assert isinstance(closure, InternedFactStore)
        assert closure.overlay_size == 0
        assert memo(interned.facts) is None
        assert set(closure.rows()) == set(plain.standard_closure().store)
        assert interned.standard_closure().rule_firings \
            == plain.standard_closure().rule_firings

    def test_a_closure_over_a_hash_base_stays_a_hash_store(self):
        db = Database(world_facts())
        assert type(db.standard_closure().store) is FactStore


class TestCheckpoint:
    def test_a_checkpoint_pins_no_fact_per_base_fact(self, tmp_path):
        """The served master's shape: heap and closure compacted, then
        written to the snapshot — the overlay and tombstones too."""
        db = Database(world_facts())
        db.view()
        db.compact_store()
        db.add("EMP99", MEMBER, "EMPLOYEE")
        db.remove_fact(Fact("EMP3", "WORKS-FOR", "DEPT0"))
        assert db.facts.overlay_size == 2
        assert memo(db.facts) is None
        with DurableSession(tmp_path) as session:
            session.checkpoint(db)
        assert memo(db.facts) is None
        written = read_snapshot(tmp_path / "snapshot.json").facts
        assert len(written) == len(db.facts)
        assert set(written) == set(db.facts.rows())
