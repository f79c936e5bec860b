"""Delete/Rederive (DRed) tests: equivalence with recomputation under
arbitrary deletion sequences on every store kind and under ablated rule
sets, alternative-derivation survival, provenance pruning and
grounding, and the rederive join's cost on a wide class."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entities import INV, ISA, MEMBER, SYN
from repro.core.facts import Fact
from repro.core.store import FactStore
from repro.db import Database
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.rules.builtin import STANDARD_RULES
from repro.rules.deletion import delete_with_rederivation
from repro.rules.engine import semi_naive_closure
from repro.rules.provenance import explain_fact
from repro.rules.rule import RelationshipClassifier, RuleContext


def _closure_of(facts):
    store = FactStore(facts)
    context = RuleContext(classifier=RelationshipClassifier(store))
    return semi_naive_closure(facts, STANDARD_RULES, context)


class TestDeleteWithRederivation:
    def test_consequences_removed(self):
        facts = [Fact("JOHN", MEMBER, "EMPLOYEE"),
                 Fact("EMPLOYEE", "EARNS", "SALARY")]
        result = _closure_of(facts)
        base = FactStore(facts)
        deleted = Fact("JOHN", MEMBER, "EMPLOYEE")
        base.discard(deleted)
        context = RuleContext(classifier=RelationshipClassifier(base))
        stats = delete_with_rederivation(result, base, deleted,
                                         STANDARD_RULES, context)
        assert Fact("JOHN", "EARNS", "SALARY") not in result.store
        assert stats.overdeleted >= 2

    def test_alternative_derivation_survives(self):
        """(B, R, X) is endangered through the synonym derivation but
        survives because it is stored; (A, R, X) is rederived from it."""
        facts = [Fact("A", SYN, "B"), Fact("A", "R", "X"),
                 Fact("B", "R", "X")]
        result = _closure_of(facts)
        base = FactStore(facts)
        deleted = Fact("A", "R", "X")
        base.discard(deleted)
        context = RuleContext(classifier=RelationshipClassifier(base))
        stats = delete_with_rederivation(result, base, deleted,
                                         STANDARD_RULES, context)
        assert Fact("B", "R", "X") in result.store
        assert Fact("A", "R", "X") in result.store  # via syn-source
        assert stats.rederived >= 1

    def test_deleting_absent_fact_is_noop(self):
        facts = [Fact("A", "R", "B")]
        result = _closure_of(facts)
        base = FactStore(facts)
        context = RuleContext(classifier=RelationshipClassifier(base))
        stats = delete_with_rederivation(
            result, base, Fact("Z", "Z", "Z"), STANDARD_RULES, context)
        assert stats.overdeleted == 0
        assert Fact("A", "R", "B") in result.store

    def test_other_base_facts_never_endangered(self):
        facts = [Fact("A", ISA, "B"), Fact("B", ISA, "C")]
        result = _closure_of(facts)
        base = FactStore(facts)
        deleted = Fact("A", ISA, "B")
        base.discard(deleted)
        context = RuleContext(classifier=RelationshipClassifier(base))
        delete_with_rederivation(result, base, deleted,
                                 STANDARD_RULES, context)
        assert Fact("B", ISA, "C") in result.store
        assert Fact("A", ISA, "C") not in result.store


class TestDatabaseDeletion:
    def test_queries_after_incremental_delete(self):
        db = Database()
        db.add("JOHN", MEMBER, "EMPLOYEE")
        db.add("EMPLOYEE", "EARNS", "SALARY")
        assert db.ask("(JOHN, EARNS, SALARY)")  # cache built
        db.remove_fact(Fact("JOHN", MEMBER, "EMPLOYEE"))
        assert not db.ask("(JOHN, EARNS, SALARY)")

    def test_composition_refreshes_after_delete(self):
        db = Database()
        db.limit(2)
        db.add("A", "R", "B")
        db.add("B", "S", "C")
        assert db.ask("(A, R.B.S, C)")
        db.remove_fact(Fact("B", "S", "C"))
        assert not db.ask("(A, R.B.S, C)")

    def test_provenance_pruned_and_restored(self):
        db = Database(trace=True)
        db.add("A", SYN, "B")
        db.add("A", "R", "X")
        db.add("B", "R", "X")
        db.closure()
        db.remove_fact(Fact("A", "R", "X"))
        tree = db.why("(A, R, X)")  # now derived, not stored
        assert not tree.is_stored
        assert Fact("B", "R", "X") in tree.stored_support()

    def test_classification_removal_recomputes(self):
        db = Database()
        db.add("JOHN", MEMBER, "EMPLOYEE")
        db.add("EMPLOYEE", "TOTAL-NUMBER", "180")
        db.declare_class_relationship("TOTAL-NUMBER")
        assert not db.ask("(JOHN, TOTAL-NUMBER, 180)")
        db.remove_fact(
            Fact("TOTAL-NUMBER", MEMBER, "CLASS-RELATIONSHIP"))
        # Un-classifying re-enables inheritance: only a recomputation
        # can discover the new derivations.
        assert db.ask("(JOHN, TOTAL-NUMBER, 180)")

    def test_hierarchy_refreshes_after_delete(self):
        db = Database()
        db.add("A", ISA, "B")
        db.add("B", ISA, "C")
        assert db.hierarchy().generalizes("C", "A")
        db.remove_fact(Fact("B", ISA, "C"))
        assert not db.hierarchy().generalizes("C", "A")


# ----------------------------------------------------------------------
# The rederive join starts from the goal's bindings, not from the
# body's first atom.
# ----------------------------------------------------------------------
def _wide_class(members: int) -> Database:
    """``members`` individuals of one class, each knowing one skill of
    a three-level taxonomy — so every one of them ``KNOWS AREA``, the
    wide fact set a body-order join of gen-source would enumerate."""
    db = Database()
    db.add("SKILL", ISA, "FIELD")
    db.add("FIELD", ISA, "AREA")
    for index in range(members):
        db.add(f"M{index}", MEMBER, "STAFF")
        db.add(f"M{index}", "KNOWS", "SKILL")
    db.closure()
    return db


def _rederive_candidates_of_one_removal(db: Database) -> int:
    """The pivot facts the rederive step fed its compiled joins."""
    with use_telemetry(Telemetry()) as telemetry:
        assert db.remove_fact(Fact("M0", "KNOWS", "SKILL"))
    return telemetry.counters["dispatch.rederive_candidates"]


@pytest.mark.parametrize("interned", [False, True])
def test_rederive_cost_does_not_grow_with_the_class(interned):
    counts = []
    for members in (1000, 2000):
        db = _wide_class(members)
        if interned:
            db.compact_store()
        counts.append(_rederive_candidates_of_one_removal(db))
        # Three facts fell (M0 knows the skill, its field, its area)
        # and nothing else moved.
        assert not db.ask("(M0, KNOWS, AREA)")
        assert db.ask("(M1, KNOWS, AREA)")
        assert len(db.closure().store) == len(_wide_class(members)
                                              .closure().store) - 3
    # Every alternative is tried and none succeeds, so the count is
    # exact: the same candidates whether 1 000 or 2 000 colleagues know
    # the area, and a small constant.  A pivot picked by its ground
    # positions alone feeds gen-source every member who KNOWS AREA.
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= 20


# ----------------------------------------------------------------------
# Property: DRed equals recomputation for arbitrary add/remove
# sequences with reads interleaved, whatever the stores are made of
# and whichever standard rules are switched off.
# ----------------------------------------------------------------------
_entities = st.sampled_from(["A", "B", "C", "D"])
_relationships = st.sampled_from(["R", "S", ISA, MEMBER, SYN, INV])
_facts = st.builds(Fact, _entities, _relationships, _entities)
_rule_names = st.sampled_from([rule.name for rule in STANDARD_RULES])

#: Unify the head ``(z, R, y)`` with a goal and the *second* atom is
#: the bound, selective one; the first still has a free source.
_WIDE_FIRST = "(x, R, y) and (z, S, x) => (z, R, y)"


def _database(wide_first: bool, excluded=()) -> Database:
    db = Database(with_axioms=False, trace=True)
    if wide_first:
        db.define_rule("wide-first", _WIDE_FIRST)
    for name in sorted(excluded):
        db.exclude(name)
    return db


def _materialize(db: Database, facts, kind: str) -> None:
    """Load ``facts`` and warm the closure on the given kind of store:
    hash indexes, one interned generation (removals become tombstones),
    or a generation built from the first half with the second half in
    its overlay (removals hit tombstones and overlay alike)."""
    if kind == "interned+overlay":
        half = len(facts) // 2
        db.add_facts(facts[:half])
        db.closure()
        db.compact_store()
        db.add_facts(facts[half:])
    else:
        db.add_facts(facts)
        db.closure()
        if kind == "interned":
            db.compact_store()
    db.closure()


def _assert_equals_recomputation(maintained_db, fresh_db, survivors):
    maintained, recomputed = maintained_db.closure(), fresh_db.closure()
    assert set(maintained.store) == set(recomputed.store)
    # Provenance: exactly the derived facts carry a justification,
    # before and after — pruned for what fell, fresh for what came back.
    # (A fact derived first and stored later keeps its stale entry;
    # ``why`` answers "stored" before it looks, so only unstored facts
    # are compared.)
    justified = set(maintained.provenance) - set(survivors)
    assert justified == set(recomputed.provenance)
    assert justified == set(maintained.store) - set(survivors)
    # … and every one of those chains grounds out in what is stored now
    # (``explain_fact`` raises on a missing or cyclic justification).
    context = maintained_db.rule_context()
    for derived in justified:
        explain_fact(derived, maintained_db.facts, maintained.provenance)
        _assert_derives(maintained_db, maintained.provenance[derived],
                        derived, context)


def _assert_derives(db, justification, derived, context):
    """The justification's rule is enabled, its body matches the
    premises in order under one binding whose conditions hold, and a
    head under that binding is the fact."""
    assert db.rules.is_enabled(justification.rule), justification
    rule = db.rules.get(justification.rule)
    assert len(rule.body) == len(justification.premises)
    binding = {}
    for atom, premise in zip(rule.body, justification.premises):
        binding = atom.match(premise, binding)
        assert binding is not None, (justification, derived)
    assert all(c.holds(binding, context) for c in rule.conditions), \
        (justification, derived)
    assert derived in {atom.substitute(binding).to_fact()
                       for atom in rule.head}, (justification, derived)


def _check_dred_equals_recomputation(kind, wide_first, excluded, initial,
                                     removals):
    incremental = _database(wide_first, excluded)
    _materialize(incremental, initial, kind)
    survivors = list(dict.fromkeys(initial))
    for index in removals:
        if not survivors:
            break
        target = survivors[index % len(survivors)]
        survivors.remove(target)
        incremental.remove_fact(target)
        incremental.closure()
    fresh = _database(wide_first, excluded)
    fresh.add_facts(survivors)
    _assert_equals_recomputation(incremental, fresh, survivors)


_dred_cases = given(initial=st.lists(_facts, min_size=1, max_size=10),
                    removals=st.lists(st.integers(0, 9), max_size=5),
                    wide_first=st.booleans(),
                    excluded=st.sets(_rule_names, max_size=4))


@settings(max_examples=40, deadline=None)
@_dred_cases
def test_dred_equals_recomputation(initial, removals, wide_first, excluded):
    _check_dred_equals_recomputation("plain", wide_first, excluded,
                                     initial, removals)


@pytest.mark.parametrize("kind", ["interned", "interned+overlay"])
@settings(max_examples=40, deadline=None)
@_dred_cases
def test_dred_equals_recomputation_on_interned_stores(
        kind, initial, removals, wide_first, excluded):
    _check_dred_equals_recomputation(kind, wide_first, excluded, initial,
                                     removals)


def test_the_second_head_of_a_multi_head_rule_rederives():
    """Without syn-symmetry, (B, ≺, A) has one derivation left after
    (C, ≺, A) goes: syn-to-gen's *second* head, (t, ≺, s), from
    (A, ≈, B).  (B, ≈, A) fell with it and comes back only through the
    propagation from (B, ≺, A)."""
    facts = [Fact("A", SYN, "B"), Fact("B", ISA, "C"),
             Fact("C", ISA, "A")]
    db = _database(False, {"syn-symmetry"})
    _materialize(db, facts, "plain")
    db.remove_fact(Fact("C", ISA, "A"))
    justification = db.closure().provenance[Fact("B", ISA, "A")]
    assert justification.rule == "syn-to-gen"
    assert justification.premises == (Fact("A", SYN, "B"),)
    assert Fact("B", SYN, "A") in db.closure().store
    fresh = _database(False, {"syn-symmetry"})
    fresh.add_facts(facts[:2])
    _assert_equals_recomputation(db, fresh, facts[:2])


@settings(max_examples=25, deadline=None)
@given(initial=st.lists(_facts, min_size=2, max_size=10),
       flips=st.lists(st.tuples(st.sampled_from(["add", "remove", "toggle"]),
                                st.integers(0, 9)),
                      max_size=8),
       excluded=st.sets(_rule_names, max_size=4))
def test_mixed_add_remove_equals_recomputation(initial, flips, excluded):
    """Random interleavings of insertion (extend), deletion (DRed) and
    rule toggles (``include`` / ``exclude``) against the same final
    state recomputed fresh."""
    incremental = _database(False, excluded)
    incremental.add_facts(initial)
    present = list(dict.fromkeys(initial))
    excluded = set(excluded)
    extra_pool = [Fact("E", "R", e) for e in ("A", "B", "C", "D")]
    for kind, index in flips:
        incremental.closure()
        if kind == "add":
            fact = extra_pool[index % len(extra_pool)]
            if fact not in present:
                present.append(fact)
            incremental.add_fact(fact)
        elif kind == "toggle":
            name = STANDARD_RULES[index % len(STANDARD_RULES)].name
            if name in excluded:
                incremental.include(name)
            else:
                incremental.exclude(name)
            excluded ^= {name}
        elif present:
            fact = present[index % len(present)]
            present.remove(fact)
            incremental.remove_fact(fact)
    fresh = _database(False, excluded)
    fresh.add_facts(present)
    _assert_equals_recomputation(incremental, fresh, present)
