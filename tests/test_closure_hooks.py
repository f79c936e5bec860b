"""The closure-change hook: incremental maintenance reports the net ±.

Insertion extension (:func:`~repro.rules.dispatch.extend_closure`) and
Delete/Rederive (:func:`~repro.rules.deletion.delete_with_rederivation`)
report the facts they added to and removed from the standard closure
store, and :class:`~repro.db.Database` hands that change to whoever
holds its closure log — the serving writer, which ships it to
replicas.  The contract checked here: after every mutation the
reported ± is *exactly* the set difference of the closure before and
after, its two halves are disjoint, and a whole sequence's log
coalesces to the difference between its first and last closure.  A
mutation the database cannot maintain incrementally (an ``(r, ∈,
R_c)`` declaration) reports no change at all: it sets the log to
``None``, and the closure is recomputed; so does a ``limit(n)``, and
so does defining a rule whose head names an entity no stored fact
names and whose body carries a condition the compiler does not know —
after which the closure and every derived fact's ``why`` are the
reference engine's over a hash store.  On a
compacted database a step may also fold (``compact_store()``), after
which the base heap reads the closure's one generation.  Whatever the
limit, the view answers the closure and its composition facts as the
reference engine and the oracle compose them on a hash store.  A step
may also build the generalization lattice and hold a snapshot: at the
end the database's lattice answers as the networkx reference over the
closure, and each held snapshot's as the reference over its own
closure, which it never rebuilt.  A ``rename`` step removes every
stored fact naming one entity, folds, adds them back with a fact naming
a never-seen entity and folds again: a fold keeps every name's id, the
dead name's too, and no ``why``, and after each step the closure is the
reference's and each derived fact's ``why`` a derivation in it.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.browse.hierarchy import GeneralizationHierarchy
from repro.core.entities import CLASS_RELATIONSHIP, ISA, MEMBER, SYN
from repro.core.facts import Fact, Template, Variable
from repro.db import Database
from repro.rules.rule import Condition, Rule
from repro.serve.service import _coalesce

from .hash_reference import hash_twin

#: A small world in which every case the hook must get right occurs:
#: ``≺`` chains, memberships inherited along them, a synonym, and a
#: stored fact that the rules also derive.
WORLD = (
    Fact("ENGINEER", ISA, "EMPLOYEE"),
    Fact("EMPLOYEE", ISA, "PERSON"),
    Fact("SUE", MEMBER, "ENGINEER"),
    Fact("SUE", MEMBER, "EMPLOYEE"),        # stored and derivable
    Fact("EMPLOYEE", "EARNS", "SALARY"),
    Fact("SALARY", ISA, "COMPENSATION"),
    Fact("PAY", SYN, "SALARY"),
    Fact("BOB", "WORKS-FOR", "SALES"),
)

#: Facts a step may add besides the current closure's: new memberships
#: and ``≺`` facts, a fact that composes with ``WORKS-FOR`` ones, and a
#: declaration that forces a recompute.
EXTRA = (
    Fact("SALES", "LOCATED-IN", "BOSTON"),
    Fact("BOB", MEMBER, "ENGINEER"),
    Fact("MANAGER", ISA, "EMPLOYEE"),
    Fact("PERSON", ISA, "AGENT"),
    Fact("ANN", MEMBER, "MANAGER"),
    Fact("ANN", "WORKS-FOR", "SALES"),
    Fact("WORKS-FOR", MEMBER, CLASS_RELATIONSHIP),
)


class _Unlike(Condition):
    """A condition type the compiler does not know: its variable must
    not denote ``name``."""

    def __init__(self, variable: Variable, name: str):
        self.variable, self.name = variable, name

    def holds(self, binding, context) -> bool:
        return binding.get(self.variable) != self.name

    def variables(self):
        return frozenset({self.variable})


#: The rule a ``"define"`` step includes: its head names ``HOLDS-IN``,
#: which no stored fact names, and its body carries ``_Unlike``.
DEFINED = Rule(name="holds-in",
               body=(Template(Variable("x"), MEMBER, Variable("c")),),
               head=(Template(Variable("x"), "HOLDS-IN", Variable("c")),),
               conditions=(_Unlike(Variable("c"), "MANAGER"),))


def _closure(db: Database) -> Set[Fact]:
    return set(db.standard_closure().store)


def maintained_step(db: Database, op: str, fact: Fact
                    ) -> Optional[Tuple[List[Fact], List[Fact]]]:
    """Apply one mutation with a closure log attached and return the
    reported ``(added, removed)``, or ``None`` when the mutation was not
    maintained incrementally (the closure was dropped)."""
    db.standard_closure()
    db._closure_log = log = []  # noqa: SLF001
    if op == "add":
        db.add_fact(fact)
    else:
        db.remove_fact(fact)
    if db._closure_log is None:  # noqa: SLF001
        return None
    db._closure_log = None  # noqa: SLF001
    return ([f for kind, f in log if kind == "add"],
            [f for kind, f in log if kind == "remove"])


def _same_lattice(db: Database, closure) -> None:
    """``db``'s lattice answers §5.1 as the networkx reference over
    ``closure``, its hash twin's."""
    pytest.importorskip("networkx")
    reference = GeneralizationHierarchy.from_store(closure)
    lattice = db.hierarchy()
    for entity in closure.entities():
        for question in ("minimal_generalizations",
                         "minimal_specializations", "synonym_class"):
            assert getattr(lattice, question)(entity) \
                == getattr(reference, question)(entity), (question, entity)


def _world(compacted: bool) -> Database:
    db = Database(WORLD, trace=True)
    db.view()
    # A database is one generation from birth: its first closure is
    # folded and the base heap re-founded on its stored rows.
    generation = db.closure().store.generation
    assert generation is not None and db.facts.generation is generation
    if compacted:
        db.compact_store()
    return db


def _same_as_twin(db: Database) -> dict:
    """``db``'s closure is the reference engine's over a hash store of
    its facts, and each derived fact's ``why`` a derivation in it: every
    step a rule of ``db``'s from closure facts, down to stored ones.  A
    maintained fact may keep another derivation than a recompute finds,
    so only a recompute's ``why`` equals the reference's (``define``).
    Returns each derived fact's ``why``."""
    twin = hash_twin(db, trace=True)
    closure = _closure(db)
    assert closure == set(twin.standard.store)
    rules = {rule.name for rule in db.rules}
    trees = {fact: db.why(fact) for fact in sorted(closure - set(db.facts))}
    for fact, tree in trees.items():
        assert tree.fact == fact and tree.stored_support() <= set(twin.facts)
        steps = [tree]
        while steps:
            step = steps.pop()
            assert step.fact in closure, fact
            assert step.rule is None or step.rule in rules, fact
            steps += step.premises
    return trees


def _fold_keeping_ids(db: Database) -> None:
    """``compact_store()``, which keeps the id of every name the old
    generation knew (dead ones too), appends only new names, and
    changes no ``why``."""
    before = list(db.facts.generation.interner.names)
    trees = _same_as_twin(db)
    db.compact_store()
    generation = db.facts.generation
    assert generation is db.closure().store.generation
    assert list(generation.interner.names)[:len(before)] == before
    assert {fact: db.why(fact) for fact in trees} == trees


def _run(compacted: bool, steps) -> None:
    db = _world(compacted)
    first = _closure(db)
    sequence_log: Optional[list] = []
    snapshots: List[Database] = []
    for op, pick in steps:
        if op == "hierarchy":
            db.hierarchy()
            snapshots.append(db.snapshot())
            continue
        if op == "fold":
            if compacted:
                db.compact_store()
                assert db.facts.generation is db.closure().store.generation
            continue
        if op == "define":
            # Recomputed on the next read, the closure is the
            # reference's, and so is each derived fact's justification.
            db.include(DEFINED)
            sequence_log, first = [], _closure(db)
            twin = hash_twin(db, trace=True)
            assert first == set(twin.standard.store)
            for fact in sorted(first - set(db.facts)):
                assert db.why(fact) == twin.why(fact), fact
            continue
        if op == "limit":
            # A new limit drops the closure, like a declaration.
            db.limit((1, 2, None)[pick % 3])
            sequence_log, first = [], _closure(db)
            continue
        if op == "rename":
            # Every stored fact naming one entity goes, a fold, they
            # come back with a never-seen name, another fold: the
            # name's id outlives its rows, and the reference agrees
            # after each step.
            names = sorted(db.facts.entities())
            entity = names[pick % len(names)]
            naming = [fact for fact in sorted(db.facts) if entity in fact]
            for action, fact in ([("remove", fact) for fact in naming]
                                 + [("fold", None)]
                                 + [("add", fact) for fact in naming]
                                 + [("add", Fact(entity, "NAMES",
                                                 f"NEW{pick}")),
                                    ("fold", None)]):
                if action != "fold":
                    maintained_step(db, action, fact)
                elif compacted:
                    _fold_keeping_ids(db)
                _same_as_twin(db)
            sequence_log, first = [], _closure(db)
            continue
        before = _closure(db)
        if op == "add":
            pool = sorted(before | set(WORLD) | set(EXTRA))
        else:
            pool = sorted(db.facts)
        fact = pool[pick % len(pool)]
        change = maintained_step(db, op, fact)
        after = _closure(db)
        if change is None:
            # Only a relationship declaration is not maintained.
            assert fact.relationship == MEMBER and fact.target \
                == CLASS_RELATIONSHIP
            sequence_log, first = [], after
            continue
        added, removed = change
        assert set(added) == after - before, (op, fact)
        assert set(removed) == before - after, (op, fact)
        assert len(added) == len(set(added))
        assert len(removed) == len(set(removed))
        assert not set(added) & set(removed)
        sequence_log += [("remove", f) for f in removed]
        sequence_log += [("add", f) for f in added]
    # The writer's coalescing of a whole batch is the batch's difference.
    adds, removes = _coalesce(sequence_log)
    last = _closure(db)
    assert set(adds) == last - first
    assert set(removes) == first - last
    # And the maintained closure is the closure of what is stored,
    # as the reference engine computes it on a hash store, with the
    # oracle's composition facts in the view.
    twin = hash_twin(db)
    assert last == set(twin.standard.store)
    assert set(db.view().match(Template(*map(Variable, "srt")))) \
        == set(twin.closure)
    # A ≺ write dropped the lattice and the next hierarchy() rebuilt
    # it; every snapshot kept the one it was taken with.
    _same_lattice(db, twin.closure)
    for snapshot in snapshots:
        _same_lattice(snapshot, hash_twin(snapshot).closure)
        assert snapshot.stats()["hierarchy"]["rebuilds"] == 0


STEPS = st.lists(st.tuples(st.sampled_from(["add", "remove", "fold",
                                            "limit", "hierarchy",
                                            "define", "rename"]),
                           st.integers(0, 10_000)), max_size=14)


@settings(max_examples=60, deadline=None)
@given(compacted=st.booleans(), steps=STEPS)
# Re-adding a derived fact, removing a stored fact the rules still
# derive, re-adding a fact just removed (a tombstone when compacted),
# and a ≺ removal that drops derived memberships.  Then an add of the
# derived (SUE, ∈, PERSON), a fold, its removal and another fold: the
# fact is a closure row whose stored flag comes and goes.
@example(compacted=True, steps=[("add", 0), ("remove", 3), ("add", 0)])
@example(compacted=True, steps=[("add", 39), ("fold", 0), ("remove", 12),
                                ("fold", 0)])
@example(compacted=False, steps=[("remove", 0), ("add", 1)])
# limit(2), the fact that composes, a fold, limit(None), a removal and
# limit(1).
@example(compacted=True, steps=[("limit", 1), ("add", 34), ("fold", 0),
                                ("limit", 2), ("remove", 2), ("limit", 0)])
# Snapshots around a ≺ add, the synonym's removal and its re-add (a
# synonym class split and merged again), then a fold.
@example(compacted=True, steps=[("hierarchy", 0), ("add", 22),
                                ("hierarchy", 0), ("remove", 9),
                                ("hierarchy", 0), ("add", 24),
                                ("fold", 0)])
# The rule defined after a fold and the add of (MANAGER, ≺, EMPLOYEE);
# then (ANN, ∈, MANAGER) (no HOLDS-IN MANAGER: the unknown condition)
# and (BOB, ∈, ENGINEER) added, (ENGINEER, ≺, EMPLOYEE) removed and a
# fold.
@example(compacted=True, steps=[("fold", 0), ("add", 22), ("define", 0),
                                ("add", 10), ("add", 19), ("remove", 9),
                                ("fold", 0)])
# BOB's one fact removed, a fold (BOB dead), the fact back with
# (BOB, NAMES, NEW3) and a fold; then a derived membership kept through
# maintenance, whose why is another derivation than a recompute's.
@example(compacted=True, steps=[("rename", 3)])
@example(compacted=False, steps=[("add", 2137), ("rename", 0)])
def test_reported_change_is_the_closure_difference(compacted, steps):
    _run(compacted, steps)


def test_a_fold_under_composition_keeps_the_standard_rows():
    """Under ``limit(2)`` folds keep every row of the closure: after
    add, fold, view and fold, the closure is the reference engine's
    over a hash store of the same facts, the view composes what the
    oracle composes over it, and both stay so through one more add."""
    world = WORLD + (Fact("SALES", "LOCATED-IN", "BOSTON"),)
    compacted, plain = _world(True), Database(world)
    compacted.add_fact(world[-1])
    for db in (compacted, plain):
        db.limit(2)
        db.view()
        db.add_fact(Fact("ANN", "WORKS-FOR", "SALES"))
    compacted.compact_store()
    compacted.view()
    compacted.compact_store()
    assert compacted.facts.generation \
        is compacted.closure().store.generation
    for new in (None, Fact("ANN", MEMBER, "ENGINEER")):
        if new is not None:
            compacted.add_fact(new)
            plain.add_fact(new)
        twin = hash_twin(plain)
        assert set(compacted.facts) == set(plain.facts) == set(twin.facts)
        assert set(compacted.standard_closure().store) \
            == set(twin.standard.store)
        assert set(compacted.closure().store) == set(twin.standard.store)
        assert set(compacted.view().match(Template(*map(Variable, "srt")))) \
            == set(twin.closure)


def test_the_named_cases():
    for compacted in (False, True):
        db = _world(compacted)
        derived = Fact("SUE", MEMBER, "PERSON")
        assert derived in _closure(db) and derived not in db.facts
        # Re-adding an already-derived fact changes the heap, not the
        # closure.
        assert maintained_step(db, "add", derived) == ([], [])
        # Removing a stored fact the rules still derive: nothing lost.
        assert maintained_step(db, "remove",
                               Fact("SUE", MEMBER, "EMPLOYEE")) == ([], [])
        # A ≺ removal takes what it carried with it.
        isa = Fact("SALARY", ISA, "COMPENSATION")
        added, removed = maintained_step(db, "remove", isa)
        assert added == [] and isa in removed
        assert Fact("EMPLOYEE", "EARNS", "COMPENSATION") in removed
        # Re-adding it (a tombstoned generation fact when compacted)
        # brings back exactly that.
        again, gone = maintained_step(db, "add", isa)
        assert gone == [] and set(again) == set(removed)
        # A declaration is not maintained: no change is reported.
        assert maintained_step(
            db, "add", Fact("EARNS", MEMBER, CLASS_RELATIONSHIP)) is None
