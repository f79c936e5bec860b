"""What a fold costs, two trees alternating.

    python docs/measurements/pr56/fold_cost.py PARENT CHANGE OUT.jsonl [ROUNDS]

Each round runs one child per tree, the parent first in odd rounds
(round numbers start at 1), pinned to one CPU when ``taskset`` exists.
A child, in a fresh interpreter of its tree, times
``Database.compact_store()`` in two settings:

* ``library_fold_s``: ``docs/measurements/pr50/library_min.py``'s
  5 000-employee world as a library ``Database(facts)`` after its first
  ``view()``; three times, 2 000 maintained adds (half of them naming a
  new entity, half a new skill), then one fold;
* ``write_mix_fold_s``: the write-mix master (PARENT's
  ``benchmarks/macro/world.py``, seed 1, viewed and folded as the macro
  benchmark's child does); six times, ``OVERLAY_BUDGET + 1`` skill
  edits of distinct employees (added in even cycles, removed in odd
  ones), then one fold.

It then serves that master with an in-process ``DatabaseService`` (no
replica pool) through 256 write-mix edits, each an add and a remove
of a hot employee's extra skill, and reports the service's
``publish_pause_max_ms`` (``1e3 * publish_pause_max_s``, as the macro
benchmark's ``service.publish_pause_max_ms``), its folds and its
largest fold pause.

One JSON line per child goes to OUT.jsonl; the medians per tree, over
every fold of every child, are printed at the end.  Run it alone:
other work on a 2-CPU host moves a child's times by up to 2×.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

CHILD = r'''
import json, sys, time
tree, macro = sys.argv[1], sys.argv[2]
sys.path[:0] = [tree + "/src", macro]
from repro import Database
from repro.core.facts import Fact
from repro.core.interned import OVERLAY_BUDGET
from repro.serve import DatabaseService
from world import build_world


def fold(db):
    began = time.perf_counter()
    db.compact_store()
    return time.perf_counter() - began


row = {}
facts = [Fact("EMPLOYEE", "≺", "PERSON"), Fact("ENGINEER", "≺", "EMPLOYEE")]
for i in range(5000):
    facts.append(Fact(f"E{i}", "∈", "ENGINEER" if i % 3 else "EMPLOYEE"))
    facts.append(Fact(f"E{i}", "WORKS-FOR", f"D{i % 50}"))
    facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{i % 100}"))
    facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{(7 * i) % 100}"))
db = Database(facts)
db.view()
row["library_fold_s"] = []
for cycle in range(3):
    for w in range(cycle * 2000, (cycle + 1) * 2000):
        db.add_fact(Fact(f"N{w}", "∈", "ENGINEER") if w % 2
                    else Fact(f"E{w % 5000}", "KNOWS", f"NEWSKILL{w}"))
    row["library_fold_s"].append(fold(db))
row["library_closure_facts"] = len(db.closure().store)
del db

world = build_world(1, "write-mix")
db = Database(world.facts)
db.view()
db.compact_store()
edits = [Fact(e, "KNOWS", world.extra[e])
         for e in world.order[:OVERLAY_BUDGET + 1]]
row["write_mix_fold_s"] = []
for cycle in range(6):
    for fact in edits:
        (db.remove_fact if cycle % 2 else db.add_fact)(fact)
    row["write_mix_fold_s"].append(fold(db))
row["write_mix_closure_facts"] = len(db.closure().store)

service = DatabaseService(db)
try:
    for i in range(256):
        employee = world.hot[i % len(world.hot)]
        edit = (employee, "KNOWS", world.extra[employee])
        service.add(*edit)
        service.remove(*edit)
    stats = service.stats()
finally:
    service.close()
row["publish_pause_max_ms"] = 1e3 * stats["publish_pause_max_s"]
row["service_folds"] = stats["folds"]
row["service_fold_pause_max_ms"] = 1e3 * stats["store"]["fold_pause_max_s"]
print(json.dumps(row))
'''

FOLDS = ("library_fold_s", "write_mix_fold_s")
KEYS = ("publish_pause_max_ms", "service_folds", "service_fold_pause_max_ms")


def main(parent: str, change: str, out: str, rounds: int) -> int:
    pin = ["taskset", "-c", "1"] if shutil.which("taskset") else []
    macro = os.path.join(parent, "benchmarks", "macro")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    rows = []
    with open(out, "a", encoding="utf-8") as log:
        for number in range(1, rounds + 1):
            order = (parent, change) if number % 2 else (change, parent)
            for tree in order:
                done = subprocess.run(
                    pin + [sys.executable, "-c", CHILD, tree, macro],
                    env=env, check=True, capture_output=True, text=True)
                row = json.loads(done.stdout.strip().splitlines()[-1])
                row.update(side="parent" if tree == parent else "change",
                           round=number)
                log.write(json.dumps(row) + "\n")
                rows.append(row)
            print(f"round {number}: done", file=sys.stderr)
    for side in ("parent", "change"):
        mine = [row for row in rows if row["side"] == side]
        medians = {key: round(statistics.median(
            value for row in mine for value in row[key]), 4)
            for key in FOLDS}
        medians.update({key: round(statistics.median(
            row[key] for row in mine), 3) for key in KEYS})
        print(side, json.dumps(medians))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3],
                  int(sys.argv[4]) if len(sys.argv) > 4 else 10))
