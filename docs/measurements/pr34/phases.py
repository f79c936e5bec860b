"""A removal, phase by phase, on one tree.

    taskset -c 1 python3 phases.py TREE [ROUNDS]

Builds the browse-cold world (seed 1) with TREE's own
``benchmarks/macro/world.py``, compacts it (the interned store a served
master holds) and, ROUNDS times (default 5), removes 40 stored
``KNOWS`` facts one by one, each followed by ``view()``, then adds them
back.  Each removal is split into Delete/Rederive's four phases by
wrapping what the phases call, in this process only:

* overdelete — from entry to the first ``store.discard``;
* remove — from there to the empty ``RoundDelta`` phase 3 starts with;
* rederive — from there to ``run_rounds`` (or to the end when nothing
  came back);
* propagate — inside ``run_rounds``.

``total`` is ``remove_fact`` + ``view()``.  The wrappers cost a few
µs a call and are the same on both trees.  Prints one JSON object: the
median of each series in µs, and the pivot facts the rederive step fed
its compiled joins per removal (``DeletionStats.rederive_candidates``;
``null`` on a tree without it).  Run it on both trees in turn, pinned
to one CPU, and compare the medians of several runs.
"""

import json
import os
import statistics
import sys
import time

FACTS = 40


def main(tree: str, rounds: int) -> None:
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    from benchmarks.macro.world import build_world
    from repro.core.facts import Fact
    from repro.db import Database
    from repro.rules import deletion

    db = Database(build_world(1, "browse-cold").facts)
    db.standard_closure()
    db.compact_store()
    db.view()
    knows = [Fact(*f) for f in
             sorted(f for f in db.facts if f[1] == "KNOWS")[:FACTS]]

    clock = time.perf_counter
    marks = {}
    candidates = []
    series = {name: [] for name in ("overdelete", "remove", "rederive",
                                    "propagate", "total")}
    store_type = type(db.standard_closure().store)
    real_discard = store_type.discard
    real_delta = deletion.RoundDelta
    real_rounds = deletion.run_rounds
    real_delete = deletion.delete_with_rederivation

    def discard(self, fact):
        marks.setdefault("discard", clock())
        return real_discard(self, fact)

    def round_delta(indexes, facts=()):
        if not facts:
            marks.setdefault("rederive", clock())
        return real_delta(indexes, facts)

    def run_rounds(*args, **kwargs):
        marks["propagate"] = clock()
        try:
            return real_rounds(*args, **kwargs)
        finally:
            marks["propagated"] = clock()

    def delete(*args, **kwargs):
        marks.clear()
        started = clock()
        try:
            stats = real_delete(*args, **kwargs)
            candidates.append(getattr(stats, "rederive_candidates", None))
            return stats
        finally:
            ended = clock()
            rederive_end = marks.get("propagate", ended)
            series["overdelete"].append(marks["discard"] - started)
            series["remove"].append(marks["rederive"] - marks["discard"])
            series["rederive"].append(rederive_end - marks["rederive"])
            series["propagate"].append(
                marks.get("propagated", rederive_end) - rederive_end)

    store_type.discard = discard
    deletion.RoundDelta = round_delta
    deletion.run_rounds = run_rounds
    import repro.db as db_module
    db_module.delete_with_rederivation = delete
    for _ in range(rounds):
        for fact in knows:
            started = clock()
            db.remove_fact(fact)
            db.view()
            series["total"].append(clock() - started)
        for fact in knows:
            db.add_fact(fact)
            db.view()
    report = {name: round(1e6 * statistics.median(values), 1)
              for name, values in series.items()}
    report["rederive_candidates"] = (
        None if None in candidates else statistics.median(candidates))
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 5)
