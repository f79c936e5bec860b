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
``None``, and the closure is recomputed; so does a ``limit(n)``.  On a
compacted database a step may also fold (``compact_store()``), after
which the base heap reads the closure's one generation.  Whatever the
limit, the view answers the closure and its composition facts as the
reference engine and the oracle compose them on a hash store.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.entities import CLASS_RELATIONSHIP, ISA, MEMBER, SYN
from repro.core.facts import Fact, Template, Variable
from repro.db import Database
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


def _world(compacted: bool) -> Database:
    db = Database(WORLD)
    db.view()
    # A database is one generation from birth: its first closure is
    # folded and the base heap re-founded on its stored rows.
    generation = db.closure().store.generation
    assert generation is not None and db.facts.generation is generation
    if compacted:
        db.compact_store()
    return db


def _run(compacted: bool, steps) -> None:
    db = _world(compacted)
    first = _closure(db)
    sequence_log: Optional[list] = []
    for op, pick in steps:
        if op == "fold":
            if compacted:
                db.compact_store()
                assert db.facts.generation is db.closure().store.generation
            continue
        if op == "limit":
            # A new limit drops the closure, like a declaration.
            db.limit((1, 2, None)[pick % 3])
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


STEPS = st.lists(st.tuples(st.sampled_from(["add", "remove", "fold",
                                            "limit"]),
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
