"""A library database's hot phases, best of several, trees interleaved.

    python docs/measurements/pr50/library_min.py OUT ROUNDS TREE...

Each round runs one child per tree, in the order given, pinned to one
CPU when ``taskset`` exists; a host shared with other work moves a
child's times by up to 2× from one round to the next, so compare trees
within a round.  A child builds the 5 000-employee world of
``library_load.py`` and reports the best of several runs of each phase:

* ``closure_min_s``: the first ``view()`` of ``Database(facts)``, best
  of 3;
* ``add_facts_min_s``: ``Database().add_facts(facts)``, best of 3;
* ``query_min_us``: the two-atom join, best of 400;
* ``adds_s``: then 1 000 adds through the maintained closure, once.

One JSON line per child goes to OUT, with its tree and round.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

CHILD = r'''
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from repro import Database
from repro.core.facts import Fact

facts = [Fact("EMPLOYEE", "≺", "PERSON"), Fact("ENGINEER", "≺", "EMPLOYEE")]
for i in range(5000):
    facts.append(Fact(f"E{i}", "∈", "ENGINEER" if i % 3 else "EMPLOYEE"))
    facts.append(Fact(f"E{i}", "WORKS-FOR", f"D{i % 50}"))
    facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{i % 100}"))
    facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{(7 * i) % 100}"))


def best(runs, step):
    fastest = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        step()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


row = {}
built = []
row["closure_min_s"] = best(3, lambda: built.append(Database(facts))
                            or built[-1].view())
row["add_facts_min_s"] = best(3, lambda: Database().add_facts(facts))
db = built[-1]
text = "(x, WORKS-FOR, D7) and (x, KNOWS, y)"
row["query_min_us"] = 1e6 * best(400, lambda: db.query(text))
started = time.perf_counter()
for w in range(1000):
    db.add_fact(Fact(f"N{w}", "∈", "ENGINEER") if w % 2
                else Fact(f"E{w}", "KNOWS", f"NEWSKILL{w}"))
row["adds_s"] = time.perf_counter() - started
print(json.dumps(row))
'''


def main(argv) -> int:
    out, rounds, trees = argv[0], int(argv[1]), argv[2:]
    pin = ["taskset", "-c", "1"] if shutil.which("taskset") else []
    with open(out, "a") as log:
        for n in range(rounds):
            for tree in trees:
                done = subprocess.run(pin + [sys.executable, "-c", CHILD, tree],
                                      check=True, capture_output=True,
                                      text=True)
                row = json.loads(done.stdout.strip().splitlines()[-1])
                row.update(tree=tree.rstrip("/").rsplit("/", 1)[-1], round=n)
                log.write(json.dumps(row) + "\n")
                print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
