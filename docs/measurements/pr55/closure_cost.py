"""What a first closure costs a library database, two trees alternating.

    python docs/measurements/pr55/closure_cost.py PARENT CHANGE OUT.jsonl [ROUNDS]

Each round runs one child per tree, the parent first in odd rounds
(round numbers start at 1), pinned to one CPU when ``taskset`` exists.
A child, in a fresh interpreter of its tree:

* builds the browse-cold world of seed 1 (PARENT's
  ``benchmarks/macro/world.py``) as a library ``Database(facts)`` and
  takes its first ``view()``: ``view_s``, and ``VmHWM`` / ``VmRSS``
  (MB, ``/proc/self/status``) before (``before_*``) and after it;
  ``consume_s`` is the time inside ``InternedFactStore.consume`` and
  ``closure_s`` the rest of ``dispatched_closure`` (the rounds);
* builds ``docs/measurements/pr50/library_min.py``'s 5 000-employee
  world and times its first ``view()`` (``library_view_s``), then 1 000
  adds through the maintained closure (``library_adds_s``, the adds
  ``library_min.py`` makes) and the removal of the same 1 000 facts
  (``library_removes_s``).

One JSON line per child goes to OUT.jsonl; the medians per tree are
printed at the end.  Run it alone: other work on a 2-CPU host moves a
child's times by up to 2×.
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
import repro.db as db_module
from repro import Database
from repro.core.facts import Fact
from repro.core.interned import InternedFactStore
from world import build_world


def memory():
    with open("/proc/self/status") as handle:
        fields = dict(line.split(":", 1) for line in handle)
    return {key: round(int(fields[key].split()[0]) / 1024.0, 1)
            for key in ("VmHWM", "VmRSS")}


spent = {"consume": 0.0, "dispatched": 0.0, "nested": 0.0}
inside = []
consume = InternedFactStore.consume.__func__
closure = db_module.dispatched_closure


def timed_consume(cls, *args):
    began = time.perf_counter()
    try:
        return consume(cls, *args)
    finally:
        spent["consume"] += time.perf_counter() - began
        if inside:
            spent["nested"] += time.perf_counter() - began


def timed_closure(*args, **kwargs):
    began = time.perf_counter()
    inside.append(True)
    try:
        return closure(*args, **kwargs)
    finally:
        inside.pop()
        spent["dispatched"] += time.perf_counter() - began


InternedFactStore.consume = classmethod(timed_consume)
db_module.dispatched_closure = timed_closure

facts = build_world(1, "browse-cold").facts
row = {"facts": len(facts)}
row.update({"before_" + key: mb for key, mb in memory().items()})
db = Database(facts)
began = time.perf_counter()
db.view()
row["view_s"] = time.perf_counter() - began
row.update(memory())
row["consume_s"] = spent["consume"]
row["closure_s"] = spent["dispatched"] - spent["nested"]
row["closure_facts"] = len(db.closure().store)
del db

facts = [Fact("EMPLOYEE", "≺", "PERSON"), Fact("ENGINEER", "≺", "EMPLOYEE")]
for i in range(5000):
    facts.append(Fact(f"E{i}", "∈", "ENGINEER" if i % 3 else "EMPLOYEE"))
    facts.append(Fact(f"E{i}", "WORKS-FOR", f"D{i % 50}"))
    facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{i % 100}"))
    facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{(7 * i) % 100}"))
db = Database(facts)
began = time.perf_counter()
db.view()
row["library_view_s"] = time.perf_counter() - began
writes = [Fact(f"N{w}", "∈", "ENGINEER") if w % 2
          else Fact(f"E{w}", "KNOWS", f"NEWSKILL{w}") for w in range(1000)]
began = time.perf_counter()
for fact in writes:
    db.add_fact(fact)
row["library_adds_s"] = time.perf_counter() - began
began = time.perf_counter()
for fact in writes:
    db.remove_fact(fact)
row["library_removes_s"] = time.perf_counter() - began
print(json.dumps(row))
'''

KEYS = ("VmHWM", "view_s", "closure_s", "consume_s", "library_view_s",
        "library_adds_s", "library_removes_s")


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
        print(side, json.dumps({key: round(statistics.median(
            row[key] for row in mine), 4) for key in KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3],
                  int(sys.argv[4]) if len(sys.argv) > 4 else 10))
