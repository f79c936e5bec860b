"""F8 — incremental closure maintenance vs full recomputation.

§6.2 lists "update of data" among the open issues; this bench measures
our answer (DESIGN.md §4): single-fact insertions extend the cached
closure semi-naively in place, instead of recomputing it.

Expected shape: a batch of insert-then-query steps runs far faster on
the database's maintained closure than when the closure is recomputed
from the heap after every insert, and the gap grows with closure size.
The database has no switch for the second arm (maintenance is the only
mode): the recompute arm calls :func:`dispatched_closure` on the heap
itself after each mutation, with the registry's compiled rule set.
"""

from __future__ import annotations

import pytest

from repro.benchio import Sweep, print_sweep, timed
from repro.core.facts import Fact
from repro.datasets.synthetic import hierarchy_facts, membership_facts
from repro.db import Database
from repro.rules.dispatch import dispatched_closure

BATCH = 20
MODES = ("incremental", "recompute")


def _loaded(depth: int) -> Database:
    tree, leaves = hierarchy_facts(depth, 2)
    db = Database()
    db.add_facts(tree)
    db.add_facts(membership_facts(leaves, 2))
    db.add("C0", "HAS-POLICY", "GENERAL")
    db.closure()
    return db


def _closure_total(db: Database, mode: str) -> int:
    """The closure size after a mutation: read off the maintained
    closure, or recomputed from the heap."""
    if mode == "incremental":
        return db.closure().total
    return dispatched_closure(db.facts, list(db.rules), db.rule_context(),
                              compiled=db.rules.compiled()).total


def _insert_batch(db: Database, mode: str, tag: str) -> int:
    """BATCH unique inserts, each followed by a closure read."""
    total = 0
    for index in range(BATCH):
        db.add_fact(Fact(f"NEW-{tag}-{index}", "∈", "C1"))
        total = _closure_total(db, mode)
    return total


def test_f8_incremental_vs_recompute_sweep(benchmark):
    sweep = Sweep(name="F8: insert+query batches (size %d)" % BATCH,
                  parameter="depth")
    ratios = []
    for depth in (4, 5, 6):
        runs = {}
        for mode in MODES:
            best = float("inf")
            for attempt in range(3):
                db = _loaded(depth)
                seconds = timed(
                    lambda db=db, mode=mode, t=f"{mode}{attempt}":
                        _insert_batch(db, mode, t),
                    repeat=1)
                best = min(best, seconds)
            runs[mode] = best
        ratio = runs["recompute"] / runs["incremental"]
        ratios.append(ratio)
        sweep.add(depth,
                  incremental_s=runs["incremental"],
                  recompute_s=runs["recompute"],
                  speedup=round(ratio, 1))
    print_sweep(sweep)

    # Shape: incremental maintenance wins decisively at every size.
    assert min(ratios) > 2

    db = _loaded(5)
    counter = iter(range(10 ** 6))

    def one_insert():
        db.add_fact(Fact(f"PROBE{next(counter)}", "∈", "C1"))
        return db.closure().total

    benchmark.pedantic(one_insert, rounds=10, iterations=1)


def test_f8_deletion_dred_vs_recompute(benchmark):
    """The other half of "update of data": Delete/Rederive keeps the
    closure maintained under removals too."""
    sweep = Sweep(name="F8: delete+query batches (size %d)" % BATCH,
                  parameter="depth")
    ratios = []
    for depth in (4, 5, 6):
        runs = {}
        for mode in MODES:
            best = float("inf")
            for attempt in range(3):
                db = _loaded(depth)
                victims = [Fact(f"DEL-{attempt}-{i}", "∈", "C1")
                           for i in range(BATCH)]
                db.add_facts(victims)
                db.closure()

                def delete_batch(db=db, mode=mode, victims=victims):
                    total = 0
                    for victim in victims:
                        db.remove_fact(victim)
                        total = _closure_total(db, mode)
                    return total

                best = min(best, timed(delete_batch, repeat=1))
            runs[mode] = best
        ratio = runs["recompute"] / runs["incremental"]
        ratios.append(ratio)
        sweep.add(depth, incremental_s=runs["incremental"],
                  recompute_s=runs["recompute"],
                  speedup=round(ratio, 1))
    print_sweep(sweep)
    assert min(ratios) > 2

    db = _loaded(5)
    counter = iter(range(10 ** 6))

    def one_delete():
        victim = Fact(f"VICTIM{next(counter)}", "∈", "C1")
        db.add_fact(victim)
        db.closure()
        db.remove_fact(victim)
        return db.closure().total

    benchmark.pedantic(one_delete, rounds=10, iterations=1)


def test_f8_results_identical(benchmark):
    """The maintained closure equals the recomputed one."""
    db = _loaded(4)
    db.add("NEWBIE", "∈", "C3")
    recomputed = dispatched_closure(db.facts, list(db.rules),
                                    db.rule_context())
    assert set(db.closure().store) == set(recomputed.store)
    benchmark(db.query, "(NEWBIE, x, y)")
