"""A library database's set-up, two trees compared in process.

    python docs/measurements/pr50/library_load.py PARENT CHANGE OUT [ROUNDS]

Each round runs one child per tree (which goes first alternates),
pinned to one CPU when ``taskset`` exists.  A child builds a world of
N employees (membership, department, two skills each, and a small ``≺``
chain) three ways and times each phase once:

* ``constructor_s``: ``Database(facts)``;
* ``add_facts_s``: ``Database()`` then ``db.add_facts(facts)``, the way
  ``repro.datasets`` loads;
* ``closure_s``: the first ``view()`` of the constructed database;
* ``query_p50_us``: p50 of 200 runs of a two-atom join on it, with no
  ``compact_store()``;
* ``writes_s``: then 2 000 writes through the maintained closure, as a
  library caller makes them (no ``compact_store()``, so every one stays
  in an overlay): an add each (a new member or a new skill of an
  existing employee) with a two-atom join and a one-atom lookup after
  it, and every fourth a removal of a stored fact;
* ``query_after_p50_us``: the join's p50 again, over those overlays;
* ``writes_folded_s``: the same writes on a second constructed database
  that calls ``compact_store()`` whenever ``overlay_size`` passes
  ``OVERLAY_BUDGET``, the serving writer's rule (a parent database that
  was never compacted holds hash stores, has no overlay and never
  folds), and ``query_folded_p50_us`` the join's p50 after them.

One JSON line per child goes to OUT; the medians per tree are printed.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

CHILD = r'''
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from repro import Database
from repro.core.facts import Fact
from repro.core.interned import OVERLAY_BUDGET

N = int(sys.argv[2])
facts = [Fact("EMPLOYEE", "≺", "PERSON"), Fact("ENGINEER", "≺", "EMPLOYEE")]
for i in range(N):
    facts.append(Fact(f"E{i}", "∈", "ENGINEER" if i % 3 else "EMPLOYEE"))
    facts.append(Fact(f"E{i}", "WORKS-FOR", f"D{i % 50}"))
    facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{i % 100}"))
    facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{(7 * i) % 100}"))
row = {}
started = time.perf_counter()
built = Database(facts)
row["constructor_s"] = time.perf_counter() - started
started = time.perf_counter()
Database().add_facts(facts)
row["add_facts_s"] = time.perf_counter() - started
started = time.perf_counter()
built.view()
row["closure_s"] = time.perf_counter() - started
text = "(x, WORKS-FOR, D7) and (x, KNOWS, y)"
samples = []
for _ in range(200):
    started = time.perf_counter()
    built.query(text)
    samples.append(time.perf_counter() - started)
samples.sort()
row["query_p50_us"] = 1e6 * samples[len(samples) // 2]


def writes(db, fold):
    started = time.perf_counter()
    for w in range(2000):
        db.add_fact(Fact(f"N{w}", "∈", "ENGINEER") if w % 2
                    else Fact(f"E{w}", "KNOWS", f"NEWSKILL{w}"))
        db.query(text)
        db.query(f"(E{w}, KNOWS, y)")
        if w % 4 == 3:
            db.remove_fact(Fact(f"E{w}", "WORKS-FOR", f"D{w % 50}"))
        if fold and db.overlay_size > OVERLAY_BUDGET:
            db.compact_store()
    spent = time.perf_counter() - started
    samples = []
    for _ in range(200):
        started = time.perf_counter()
        db.query(text)
        samples.append(time.perf_counter() - started)
    samples.sort()
    return spent, 1e6 * samples[len(samples) // 2]


row["writes_s"], row["query_after_p50_us"] = writes(built, False)
folding = Database(facts)
folding.view()
row["writes_folded_s"], row["query_folded_p50_us"] = writes(folding, True)
print(json.dumps(row))
'''


def main(argv) -> int:
    parent, change, out = argv[:3]
    rounds = int(argv[3]) if len(argv) > 3 else 5
    employees = 5000
    pin = ["taskset", "-c", "1"] if shutil.which("taskset") else []
    trees = {"parent": parent, "change": change}
    rows = {"parent": [], "change": []}
    with open(out, "a") as log:
        for n in range(rounds):
            order = ["parent", "change"] if n % 2 == 0 else ["change", "parent"]
            for side in order:
                done = subprocess.run(
                    pin + [sys.executable, "-c", CHILD, trees[side],
                           str(employees)],
                    check=True, capture_output=True, text=True)
                row = json.loads(done.stdout.strip().splitlines()[-1])
                row.update(side=side, round=n, employees=employees)
                log.write(json.dumps(row) + "\n")
                rows[side].append(row)
    for key in ("constructor_s", "add_facts_s", "closure_s", "query_p50_us",
                "writes_s", "query_after_p50_us", "writes_folded_s",
                "query_folded_p50_us"):
        medians = {side: statistics.median(r[key] for r in rows[side])
                   for side in rows}
        print(f"{key:15} parent {medians['parent']:.4g}"
              f"  change {medians['change']:.4g}"
              f"  ({medians['change'] / medians['parent'] - 1:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
