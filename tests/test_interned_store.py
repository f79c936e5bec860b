"""Unit tests for the interned columnar store (repro.core.interned)."""

import random

import pytest

from repro.core import Fact, FactStore, template, var
from repro.core.errors import FrozenStoreError
from repro.core.interned import (
    ColumnarGeneration,
    Interner,
    InternedFactStore,
    unlink_generation,
)


def random_facts(seed, n, entities=40, relationships=8):
    rng = random.Random(seed)
    names = [f"E{i}" for i in range(entities)]
    rels = [f"R{i}" for i in range(relationships)]
    facts = set()
    while len(facts) < n:
        facts.add(Fact(rng.choice(names), rng.choice(rels),
                       rng.choice(names)))
    return sorted(facts)


def all_ground_patterns(facts):
    """Every distinct ground probe derivable from the fact set, plus
    misses, for each of the eight bound-position specs."""
    subjects = sorted({f.source for f in facts}) + ["MISSING"]
    rels = sorted({f.relationship for f in facts}) + ["MISSING"]
    targets = sorted({f.target for f in facts}) + ["MISSING"]
    x, y, z = var("x"), var("y"), var("z")
    patterns = [template(x, y, z)]
    patterns += [template(s, y, z) for s in subjects]
    patterns += [template(x, r, z) for r in rels]
    patterns += [template(x, y, t) for t in targets]
    sample = facts[:: max(1, len(facts) // 25)]
    for f in sample:
        patterns.append(template(f.source, f.relationship, z))
        patterns.append(template(f.source, y, f.target))
        patterns.append(template(x, f.relationship, f.target))
        patterns.append(template(f.source, f.relationship, f.target))
    patterns.append(template("MISSING", "MISSING", z))
    patterns.append(template("MISSING", y, "MISSING"))
    patterns.append(template(x, "MISSING", "MISSING"))
    patterns.append(template("MISSING", "MISSING", "MISSING"))
    return patterns


class TestInterner:
    def test_round_trip(self):
        interner = Interner()
        a = interner.intern("ALPHA")
        b = interner.intern("BETA")
        assert interner.intern("ALPHA") == a
        assert interner.name_of(a) == "ALPHA"
        assert interner.name_of(b) == "BETA"
        assert interner.id_of("GAMMA") is None
        assert "ALPHA" in interner and "GAMMA" not in interner
        assert len(interner) == 2

    def test_rehydrate_from_names(self):
        interner = Interner(["A", "B", "C"])
        assert interner.id_of("C") == 2
        assert interner.intern("C") == 2
        assert interner.intern("D") == 3


class TestColumnarGeneration:
    def test_probe_equivalence_with_hash_store(self):
        facts = random_facts(7, 300)
        hash_store = FactStore(facts)
        gen = ColumnarGeneration.build(facts)
        store = InternedFactStore.from_generation(gen)
        for pattern in all_ground_patterns(facts):
            expected = sorted(hash_store.match(pattern))
            got = sorted(store.match(pattern))
            assert got == expected, pattern

    def test_exact_counts(self):
        facts = random_facts(11, 200)
        hash_store = FactStore(facts)
        store = InternedFactStore.from_facts(facts)
        for pattern in all_ground_patterns(facts):
            assert store.count_estimate(pattern) == \
                hash_store.count_estimate(pattern), pattern

    def test_iter_and_len(self):
        facts = random_facts(3, 120)
        gen = ColumnarGeneration.build(facts)
        assert len(gen) == len(facts)
        assert sorted(gen) == sorted(facts)

    def test_contains_fact(self):
        facts = random_facts(5, 80)
        gen = ColumnarGeneration.build(facts)
        for f in facts:
            assert gen.contains_fact(f)
        assert not gen.contains_fact(Fact("NO", "SUCH", "FACT"))
        assert not gen.contains_fact(
            Fact(facts[0].source, facts[0].relationship, "NOPE"))

    def test_duplicate_input_facts_dedupe(self):
        facts = random_facts(3, 30)
        doubled = facts + facts[::2]
        gen = ColumnarGeneration.build(doubled)
        assert len(gen) == len(FactStore(doubled))
        assert sorted(gen) == sorted(FactStore(doubled))
        store = InternedFactStore.from_facts(doubled)
        assert len(store) == len(FactStore(doubled))

    def test_empty_generation(self):
        gen = ColumnarGeneration.build([])
        assert len(gen) == 0
        assert list(gen) == []
        store = InternedFactStore.from_generation(gen)
        assert len(store) == 0
        assert list(store.match(template(var("x"), var("y"),
                                         var("z")))) == []


class TestInternedFactStore:
    def test_overlay_add_and_generation_dedup(self):
        facts = random_facts(2, 50)
        store = InternedFactStore.from_facts(facts)
        v = store.version
        assert not store.add(facts[0])       # already in generation
        assert store.version == v
        new = Fact("NEW", "REL", "TARGET")
        assert store.add(new)
        assert store.version == v + 1
        assert not store.add(new)            # already in overlay
        assert new in store
        assert len(store) == len(facts) + 1

    def test_tombstone_discard_and_resurrect(self):
        facts = random_facts(4, 60)
        store = InternedFactStore.from_facts(facts)
        victim = facts[10]
        assert store.discard(victim)
        assert victim not in store
        assert len(store) == len(facts) - 1
        assert not store.discard(victim)     # already gone
        assert store.add(victim)             # resurrection
        assert victim in store
        assert len(store) == len(facts)
        assert store.overlay_size == 0       # back to pure generation

    def test_discard_from_overlay(self):
        store = InternedFactStore.from_facts(random_facts(9, 30))
        extra = Fact("X", "Y", "Z")
        store.add(extra)
        assert store.discard(extra)
        assert extra not in store
        assert store.overlay_size == 0

    def test_mutation_equivalence_with_hash_store(self):
        facts = random_facts(13, 150)
        rng = random.Random(99)
        store = InternedFactStore.from_facts(facts)
        mirror = FactStore(facts)
        pool = facts + [Fact(f"N{i}", "REL", f"M{i}") for i in range(40)]
        for _ in range(400):
            f = rng.choice(pool)
            if rng.random() < 0.5:
                assert store.add(f) == mirror.add(f)
            else:
                assert store.discard(f) == mirror.discard(f)
        assert sorted(store) == sorted(mirror)
        assert len(store) == len(mirror)
        for pattern in all_ground_patterns(facts):
            assert sorted(store.match(pattern)) == \
                sorted(mirror.match(pattern)), pattern
            assert store.count_estimate(pattern) == \
                mirror.count_estimate(pattern), pattern
        assert store.entities() == mirror.entities()
        assert store.relationships() == mirror.relationships()
        for entity in list(mirror.entities()) + ["ABSENT"]:
            assert store.has_entity(entity) == mirror.has_entity(entity)
            assert store.has_relationship(entity) == \
                mirror.has_relationship(entity)

    def test_facts_mentioning(self):
        facts = random_facts(21, 100)
        store = InternedFactStore.from_facts(facts)
        mirror = FactStore(facts)
        for entity in sorted(mirror.entities())[:10] + ["ABSENT"]:
            assert store.facts_mentioning(entity) == \
                mirror.facts_mentioning(entity)

    def test_solutions(self):
        facts = random_facts(17, 90)
        store = InternedFactStore.from_facts(facts)
        mirror = FactStore(facts)
        x, y = var("x"), var("y")
        rel = facts[0].relationship
        pattern = template(x, rel, y)
        got = sorted(tuple(sorted((v.name, e) for v, e in b.items()))
                     for b in store.solutions(pattern))
        expected = sorted(tuple(sorted((v.name, e) for v, e in b.items()))
                          for b in mirror.solutions(pattern))
        assert got == expected

    def test_repeated_variable_pattern(self):
        store = InternedFactStore.from_facts(
            [Fact("A", "LIKES", "A"), Fact("A", "LIKES", "B")])
        x = var("x")
        matches = list(store.match(template(x, "LIKES", x)))
        assert matches == [Fact("A", "LIKES", "A")]

    def test_copy_shares_generation(self):
        facts = random_facts(6, 40)
        store = InternedFactStore.from_facts(facts)
        store.add(Fact("EXTRA", "R", "T"))
        clone = store.copy()
        assert clone.generation is store.generation
        assert sorted(clone) == sorted(store)
        clone.add(Fact("ONLY", "IN", "CLONE"))
        clone.discard(facts[0])
        assert Fact("ONLY", "IN", "CLONE") not in store
        assert facts[0] in store

    def test_freeze(self):
        store = InternedFactStore.from_facts(random_facts(1, 10))
        store.freeze()
        with pytest.raises(FrozenStoreError):
            store.add(Fact("A", "B", "C"))
        with pytest.raises(FrozenStoreError):
            store.discard(Fact("A", "B", "C"))
        unfrozen = store.copy()
        assert unfrozen.add(Fact("A", "B", "C"))

    def test_compact(self):
        facts = random_facts(8, 70)
        store = InternedFactStore.from_facts(facts)
        store.discard(facts[0])
        store.add(Fact("LATE", "ADD", "ITION"))
        compacted = store.compact()
        assert compacted.overlay_size == 0
        assert sorted(compacted) == sorted(store)
        assert compacted.version == store.version

    def test_version_continuity(self):
        facts = random_facts(12, 20)
        store = InternedFactStore.from_facts(facts, version=41)
        assert store.version == 41
        store.add(Fact("A", "B", "C"))
        assert store.version == 42

    def test_lookup_many(self):
        facts = random_facts(19, 120)
        store = InternedFactStore.from_facts(facts)
        store.add(Fact(facts[0].source, "OVERLAY", "REL"))
        store.discard(facts[1])
        mirror = FactStore(store)
        subjects = sorted({f.source for f in facts})[:10] + ["MISS"]
        specs = {
            "s": [template(s, var("y"), var("z")) for s in subjects],
            "sr": [template(f.source, f.relationship, var("z"))
                   for f in facts[:10]],
            "st": [template(f.source, var("y"), f.target)
                   for f in facts[:10]],
            "rt": [template(var("x"), f.relationship, f.target)
                   for f in facts[:10]],
            "srt": [template(*facts[2]), template("A", "B", "C")],
        }
        for spec, templates in specs.items():
            got = store.lookup_many(spec, templates)
            expected = mirror.match_many(templates)
            assert [sorted(g) for g in got] == \
                [sorted(e) for e in expected], spec

    def test_clear(self):
        store = InternedFactStore.from_facts(random_facts(14, 25))
        v = store.version
        store.clear()
        assert len(store) == 0
        assert store.version > v
        assert store.add(Fact("A", "B", "C"))

    @pytest.mark.parametrize("seed", range(6))
    def test_copies_share_layers_copy_on_write(self, seed):
        """Overlay and tombstones are copied by sharing their per-key
        fact sets: every copy keeps exactly the content it was taken
        at, whichever side mutates afterwards, and counts stay exact
        against a plain store."""
        rng = random.Random(seed)
        pool = random_facts(seed, 120, entities=12, relationships=4)
        store = InternedFactStore.from_facts(pool[:60])
        mirror = FactStore(pool[:60])
        taken = []                      # (copy, its own mirror)
        for step in range(300):
            fact = rng.choice(pool)
            if rng.random() < 0.5:
                assert store.add(fact) == mirror.add(fact)
            else:
                assert store.discard(fact) == mirror.discard(fact)
            if step % 25 == 0:
                taken.append((store.copy(), mirror.copy()))
            if taken and step % 7 == 0:
                # Copies are mutable stores of their own.
                copy, copy_mirror = rng.choice(taken)
                other = rng.choice(pool)
                assert copy.add(other) == copy_mirror.add(other)
                other = rng.choice(pool)
                assert copy.discard(other) == copy_mirror.discard(other)
        taken.append((store, mirror))
        assert store.overlay_size and store.tombstones
        for copy, copy_mirror in taken:
            assert sorted(copy) == sorted(copy_mirror)
            assert copy.entities() == copy_mirror.entities()
            for pattern in all_ground_patterns(pool):
                assert sorted(copy.match(pattern)) \
                    == sorted(copy_mirror.match(pattern))
                assert copy.count_estimate(pattern) \
                    == copy_mirror.count_estimate(pattern)

    def test_hash_store_from_interned(self):
        facts = random_facts(16, 30)
        store = InternedFactStore.from_facts(facts)
        rebuilt = FactStore(store)
        assert sorted(rebuilt) == sorted(facts)


class TestSharedMemory:
    def test_share_attach_round_trip(self):
        facts = random_facts(31, 200)
        gen = ColumnarGeneration.build(facts, version=7)
        handle = gen.share()
        try:
            attached = ColumnarGeneration.attach(handle)
            try:
                assert attached.version == 7
                assert len(attached) == len(facts)
                assert sorted(attached) == sorted(facts)
                store = InternedFactStore.from_generation(attached)
                mirror = FactStore(facts)
                for pattern in all_ground_patterns(facts):
                    assert sorted(store.match(pattern)) == \
                        sorted(mirror.match(pattern)), pattern
                assert store.version == 7
            finally:
                attached.close()
        finally:
            gen.close()
            assert unlink_generation(handle.name)
            assert not unlink_generation(handle.name)  # idempotent

    def test_attached_store_is_mutable(self):
        facts = random_facts(37, 50)
        gen = ColumnarGeneration.build(facts)
        handle = gen.share()
        try:
            store = InternedFactStore.attach(handle)
            try:
                assert store.add(Fact("NEW", "FACT", "HERE"))
                assert store.discard(facts[0])
                assert len(store) == len(facts)
            finally:
                store.close()
        finally:
            gen.close()
            unlink_generation(handle.name)

    def test_handle_is_picklable(self):
        import pickle

        gen = ColumnarGeneration.build(random_facts(41, 20))
        handle = gen.share()
        try:
            clone = pickle.loads(pickle.dumps(handle))
            assert clone.name == handle.name
            assert clone.layout == handle.layout
            attached = ColumnarGeneration.attach(clone)
            try:
                assert sorted(attached) == sorted(gen)
            finally:
                attached.close()
        finally:
            gen.close()
            unlink_generation(handle.name)

    def test_unlink_missing_segment(self):
        assert not unlink_generation("repro-gen-definitely-missing")
