"""Unit tests for the interned columnar store (repro.core.interned)."""

import os
import random
from pathlib import Path

import pytest

from repro.core import Fact, FactStore, template, var
from repro.core.errors import FrozenStoreError, ReplicaError
from repro.core.interned import (
    ColumnarGeneration,
    Interner,
    InternedFactStore,
    _generation_path,
    unlink_generation,
)
from repro.core.store import seed_store
from repro.db import Database


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
        store = InternedFactStore(gen)
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
        store = InternedFactStore(gen)
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
        """The one fold, ``Database.compact_store``: same facts, same
        version, one generation with nothing outside it."""
        facts = random_facts(8, 70)
        db = Database(facts, with_axioms=False).compact_store()
        db.remove_fact(facts[0])
        db.add_fact(Fact("LATE", "ADD", "ITION"))
        store = db.facts
        assert (store.tombstones, store.overlay_size) == (1, 2)
        db.compact_store()
        assert db.facts is not store
        assert db.facts.overlay_size == 0
        assert sorted(db.facts) == sorted(store)
        assert db.facts.version == store.version

    def test_version_continuity(self):
        facts = random_facts(12, 20)
        store = InternedFactStore.from_facts(facts, version=41)
        assert store.version == 41
        store.add(Fact("A", "B", "C"))
        assert store.version == 42

    def test_lookup_many(self):
        """The generation's batched id probe (tombstones filtered)
        answers as the hash store's, whose ids are its names — full
        facts, projected positions, pure filters and repeated-variable
        checks alike."""
        facts = random_facts(19, 120)
        store = InternedFactStore.from_facts(facts)
        store.discard(facts[1])
        mirror = FactStore(store)
        codec = store.id_codec()
        subjects = sorted({f.source for f in facts})[:10] + ["MISS"]
        specs = {
            "": [()],
            "s": [(s,) for s in subjects],
            "sr": [(f.source, f.relationship) for f in facts[:10]],
            "st": [(f.source, f.target) for f in facts[:10]],
            "rt": [(f.relationship, f.target) for f in facts[:10]],
            "srt": [tuple(facts[2]), tuple(facts[1]), ("A", "B", "C")],
        }
        shapes = ((None, ()), ([0, 2], ()), ([], ()), ([1], [(0, 2)]))
        for spec, keys in specs.items():
            encoded = [tuple(map(codec.encode, key)) for key in keys]
            for positions, checks in shapes:
                got = store.lookup_many_ids(spec, encoded, positions,
                                            checks)
                expected = mirror.lookup_many_ids(spec, keys, positions,
                                                  checks)
                assert [sorted(tuple(map(codec.decode, match))
                               for match in group) for group in got] \
                    == [sorted(map(tuple, group)) for group in expected], \
                    (spec, positions, checks)

    def test_clear(self):
        store = InternedFactStore.from_facts(random_facts(14, 25))
        v = store.version
        store.clear()
        assert len(store) == 0
        assert store.version > v
        assert store.add(Fact("A", "B", "C"))

    @pytest.mark.parametrize("seed", [*range(6), "empty", "cleared"])
    def test_copies_share_layers_copy_on_write(self, seed):
        """Overlay and tombstones are copied by sharing their per-key
        fact sets: every copy keeps exactly the content it was taken
        at, whichever side mutates afterwards, and counts stay exact
        against a plain store.  ``empty`` starts from a generation of
        no facts and ``cleared`` from a cleared store, so every fact
        lives in the overlay (added after the clear)."""
        rng = random.Random(seed)
        pool = random_facts(seed, 120, entities=12, relationships=4)
        if seed == "empty":
            store = InternedFactStore.from_facts([])
            mirror = FactStore()
        elif seed == "cleared":
            store = InternedFactStore.from_facts(pool[:60])
            store.clear()
            mirror = FactStore()
            assert len(store.generation) == 0
        else:
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
                taken.append((store.copy(), seed_store(mirror)))
            if taken and step % 7 == 0:
                # Copies are mutable stores of their own.
                copy, copy_mirror = rng.choice(taken)
                other = rng.choice(pool)
                assert copy.add(other) == copy_mirror.add(other)
                other = rng.choice(pool)
                assert copy.discard(other) == copy_mirror.discard(other)
        taken.append((store, mirror))
        assert store.overlay_size
        assert bool(store.tombstones) == bool(len(store.generation))
        for copy, copy_mirror in taken:
            assert sorted(copy) == sorted(copy_mirror)
            assert copy.entities() == copy_mirror.entities()
            codec = copy.id_codec()
            assert sorted(map(codec.decode,
                              copy.entity_id_domain(codec.encode))) \
                == sorted(copy_mirror.entities())
            # The batched id probe answers from the generation less
            # its tombstones; the overlay is the executor's to merge.
            generation_side = FactStore(
                fact for fact in copy.generation if fact in copy)
            for pattern in all_ground_patterns(pool):
                assert sorted(copy.match(pattern)) \
                    == sorted(copy_mirror.match(pattern))
                ground = [c if isinstance(c, str) else None
                          for c in pattern]
                assert sorted(copy.lookup(*ground)) \
                    == sorted(copy_mirror.lookup(*ground))
                assert copy.count_estimate(pattern) \
                    == copy_mirror.count_estimate(pattern)
                spec = "".join(letter for letter, c in zip("srt", ground)
                               if c is not None)
                key = tuple(c for c in ground if c is not None)
                [got] = copy.lookup_many_ids(
                    spec, [tuple(map(codec.encode, key))])
                [expected] = generation_side.lookup_many_ids(spec, [key])
                assert sorted(tuple(map(codec.decode, match))
                              for match in got) \
                    == sorted(map(tuple, expected))

    def test_hash_store_from_interned(self):
        facts = random_facts(16, 30)
        store = InternedFactStore.from_facts(facts)
        rebuilt = FactStore(store)
        assert sorted(rebuilt) == sorted(facts)


class TestFoldKeepsIds:
    """A fold builds over the old generation's ids: a name keeps its id
    for the heap's life, a dead one too, and a new name is appended to
    a copy of the interner."""

    FACTS = [Fact("EMPLOYEE", "≺", "PERSON"),
             Fact("E0", "∈", "EMPLOYEE"), Fact("E0", "WORKS-FOR", "D0"),
             Fact("E1", "∈", "EMPLOYEE"), Fact("E1", "WORKS-FOR", "D1")]
    #: The one fact naming ``LIKES`` and ``TEA``.
    LONE = Fact("E1", "LIKES", "TEA")

    def world(self):
        db = Database(self.FACTS + [self.LONE])
        db.view()
        return db

    @staticmethod
    def names(db):
        return list(db.facts.generation.interner.names)

    def test_every_surviving_name_keeps_its_id(self):
        db = self.world()
        before = self.names(db)
        db.add_fact(Fact("E2", "∈", "EMPLOYEE"))
        db.remove_fact(Fact("E0", "WORKS-FOR", "D0"))
        db.compact_store()
        assert db.facts.generation is db.closure().store.generation
        assert self.names(db) == before + ["E2"]

    def test_a_dead_name_keeps_its_id_and_is_in_no_domain(self):
        db = self.world()
        before = self.names(db)
        db.remove_fact(self.LONE)
        db.compact_store()
        assert self.names(db) == before
        for store in (db.facts, db.closure().store):
            codec = store.id_codec()
            domain = set(map(codec.decode, store.entity_id_domain(
                codec.encode)))
            assert domain == store.entities() == FactStore(store).entities()
            for name in ("TEA", "LIKES"):
                assert name not in domain
                assert not store.has_entity(name)
            assert "LIKES" not in store.relationships()
            assert not store.has_relationship("LIKES")
        db.limit(2)
        view = db.view()
        codec = view.store.id_codec()
        domain = set(map(codec.decode, view.closure.entity_id_domain(
            codec.encode)))
        assert domain == view.entities()
        assert not {"TEA", "LIKES"} & domain
        assert db.query("(x, LIKES, y)") == set()

    def test_a_re_added_name_reuses_its_id(self):
        db = self.world()
        tea = db.facts.generation.interner.id_of("TEA")
        db.remove_fact(self.LONE)
        db.compact_store()
        db.add_fact(self.LONE)
        db.compact_store()
        interner = db.facts.generation.interner
        assert interner.id_of("TEA") == tea
        assert len(interner) == len(self.world().facts.generation.interner)
        assert db.query("(x, LIKES, y)") == {("E1", "TEA")}

    def test_a_snapshot_held_across_a_fold_keeps_its_interner(self):
        db = self.world()
        snapshot = db.snapshot()
        interner = snapshot.facts.generation.interner
        length = len(interner)
        answers = sorted(snapshot.view().match(template(*map(var, "srt"))))
        db.add_fact(Fact("E2", "WORKS-FOR", "D2"))
        db.compact_store()
        assert len(db.facts.generation.interner) == length + 2
        assert snapshot.facts.generation.interner is interner
        assert len(interner) == length
        assert snapshot.closure().store.id_codec().base == length
        assert sorted(snapshot.view().match(template(*map(var, "srt")))) \
            == answers
        assert snapshot.query("(x, WORKS-FOR, D2)") == set()
        assert db.query("(x, WORKS-FOR, D2)") == {("E2",)}

    def test_a_fold_that_adds_no_name_shares_the_interner(self):
        """So does a first closure whose rows name no new name: a rule
        constant that names no row (``≈`` here) is not appended."""
        db = Database(self.FACTS + [self.LONE])
        interner = db.facts.generation.interner
        db.view()
        assert db.closure().store.generation.interner is interner
        assert "≈" not in interner
        old = db.facts.generation
        db.add_fact(Fact("E0", "WORKS-FOR", "D1"))
        db.remove_fact(Fact("E1", "WORKS-FOR", "D1"))
        db.compact_store()
        assert db.facts.generation is not old
        assert db.facts.generation.interner is old.interner


def _mapped(path) -> bool:
    """Whether this process maps ``path`` (always False where
    ``/proc/self/maps`` does not exist)."""
    try:
        with open("/proc/self/maps") as maps:
            return any(line.rstrip().endswith(str(path)) for line in maps)
    except FileNotFoundError:
        return False


class TestSharedMemory:
    def test_share_attach_round_trip(self):
        facts = random_facts(31, 200)
        gen = ColumnarGeneration.build(facts, version=7)
        name = gen.share()
        try:
            attached = ColumnarGeneration.attach(name)
            try:
                assert attached.version == 7
                assert len(attached) == len(facts)
                assert sorted(attached) == sorted(facts)
                store = InternedFactStore(attached)
                mirror = FactStore(facts)
                for pattern in all_ground_patterns(facts):
                    assert sorted(store.match(pattern)) == \
                        sorted(mirror.match(pattern)), pattern
                assert store.version == 7
            finally:
                attached.close()
        finally:
            gen.close()
            assert unlink_generation(name)
            assert not unlink_generation(name)  # idempotent

    def test_empty_generation_round_trip(self):
        gen = ColumnarGeneration.build([], version=3)
        name = gen.share()
        try:
            attached = ColumnarGeneration.attach(name)
            try:
                assert attached.version == 3
                assert len(attached) == 0 and list(attached) == []
                store = InternedFactStore(attached)
                pattern = template(var("x"), "R", var("y"))
                assert list(store.match(pattern)) == []
                assert store.add(Fact("A", "R", "B"))
                assert list(store.match(pattern)) == [Fact("A", "R", "B")]
            finally:
                attached.close()
        finally:
            unlink_generation(name)

    def test_multibyte_names_round_trip(self):
        names = ["ÉCOLE", "名前", "Ωμέγα", "ÅSA", "日本語の名前", "A",
                 "🙂", "ZÜRICH", "é", "e"]
        facts = sorted({Fact(names[i % len(names)], "∈",
                             names[(3 * i + 1) % len(names)])
                        for i in range(40)})
        gen = ColumnarGeneration.build(facts)
        name = gen.share()
        try:
            attached = ColumnarGeneration.attach(name)
            try:
                assert sorted(attached) == facts
                for entity in names + ["∈"]:
                    i = attached.interner.id_of(entity)
                    assert i == gen.interner.id_of(entity)
                    assert attached.interner.name_of(i) == entity
                assert attached.interner.id_of("名") is None
                store = InternedFactStore(attached)
                mirror = FactStore(facts)
                for pattern in all_ground_patterns(facts):
                    assert sorted(store.match(pattern)) == \
                        sorted(mirror.match(pattern)), pattern
            finally:
                attached.close()
        finally:
            unlink_generation(name)

    def test_attached_store_is_mutable(self):
        facts = random_facts(37, 50)
        gen = ColumnarGeneration.build(facts)
        name = gen.share()
        try:
            store = InternedFactStore.attach(name)
            try:
                assert store.add(Fact("NEW", "FACT", "HERE"))
                assert store.discard(facts[0])
                assert len(store) == len(facts)
            finally:
                store.close()
        finally:
            gen.close()
            unlink_generation(name)

    @pytest.mark.parametrize("keep", [0, 5, 100, -1])
    def test_truncated_file_is_refused_and_not_left_mapped(self, keep):
        """A generation file cut short anywhere — empty, inside the
        header, inside the arrays, one byte short — is refused."""
        gen = ColumnarGeneration.build(random_facts(43, 60))
        name = gen.share()
        path = Path(_generation_path(name))
        try:
            whole = path.read_bytes()
            path.write_bytes(whole[:keep])
            with pytest.raises(ReplicaError):
                ColumnarGeneration.attach(name)
            assert not _mapped(path)
        finally:
            unlink_generation(name)

    @pytest.mark.parametrize("count", ["facts", "names"])
    def test_header_counts_must_match_the_arrays(self, count):
        """A header whose fact count disagrees with the columns' and the
        flags' lengths, or whose name count plus one disagrees with the
        name offsets', is refused and not left mapped."""
        gen = ColumnarGeneration.build(random_facts(47, 60))
        name = gen.share()
        path = Path(_generation_path(name))
        try:
            whole = bytearray(path.read_bytes())
            header = ColumnarGeneration._HEADER
            fields = list(header.unpack_from(whole))
            fields[1 if count == "facts" else 2] += 1   # after the magic
            header.pack_into(whole, 0, *fields)
            path.write_bytes(bytes(whole))
            with pytest.raises(ReplicaError,
                               match="not a whole generation file"):
                ColumnarGeneration.attach(name)
            assert not _mapped(path)
        finally:
            unlink_generation(name)

    def test_unknown_names_are_not_memoized(self):
        """An attached name table keeps the names it found, not those it
        was asked about and never held: a run of unknown query
        constants leaves its memo empty."""
        gen = ColumnarGeneration.build(random_facts(53, 40))
        name = gen.share()
        try:
            attached = ColumnarGeneration.attach(name)
            try:
                interner = attached.interner
                for i in range(500):
                    assert interner.id_of(f"UNKNOWN{i}") is None
                assert interner._ids == {}
                known = gen.interner.names[3]
                assert interner.id_of(known) == 3
                assert interner._ids == {known: 3}
            finally:
                attached.close()
        finally:
            unlink_generation(name)

    def test_foreign_file_is_refused_and_not_left_mapped(self):
        name = f"repro-gen-{os.getpid()}-foreign"
        path = Path(_generation_path(name))
        path.write_bytes(b"not a generation" * 64)
        try:
            with pytest.raises(ReplicaError,
                               match="not a whole generation file"):
                ColumnarGeneration.attach(name)
            assert not _mapped(path)
        finally:
            assert unlink_generation(name)

    def test_unlink_missing_segment(self):
        assert not unlink_generation("repro-gen-definitely-missing")
