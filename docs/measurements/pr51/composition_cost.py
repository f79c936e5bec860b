"""What ``limit(2)`` costs a write and a read, trees interleaved.

    python docs/measurements/pr51/composition_cost.py OUT ROUNDS TREE...

Each round runs one child per tree, in the order given, pinned to one
CPU when ``taskset`` exists; compare trees within a round.  A child
builds two worlds in process:

* ``cold``: the macro benchmark's browse-cold world (seed 1), which
  holds no composable pair;
* ``library``: the 5 000-employee library world of
  ``docs/measurements/pr50/library_min.py`` plus one ``LOCATED-IN``
  fact per department, so 5 000 facts compose.

and reports p50 times in milliseconds:

* ``<world>_write_l1_ms`` / ``<world>_write_l2_ms``: an add, a remove
  and the next ``view()``, at ``limit(1)`` and ``limit(2)``, 15 times;
* ``cold_<kind>_ms`` at ``limit(2)``: each request of
  ``world.browse_session`` (navigate, succeeding probe, failing probe,
  join query) over 40 employees' sessions;
* ``library_star_ms``, ``library_named_ms``, ``library_probe_ms`` at
  ``limit(2)``: the navigation star ``(E7, *, *)``, the composed-name
  query ``(x, WORKS-FOR.D7.LOCATED-IN, y)`` and the probe
  ``(E7, LIVES-IN, CITY7)``, which only a composed fact witnesses once
  retracted to ``Δ``; 25 times each.

One JSON line per child goes to OUT, with its tree and round;
``--summarize OUT`` prints each metric's median per tree.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

CHILD = r'''
import json, statistics, sys, time
tree = sys.argv[1]
sys.path[:0] = [tree + "/src", tree + "/benchmarks/macro"]
from repro import Database
from repro.core.facts import Fact
from world import browse_session, build_world


def p50_ms(step, runs):
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        step()
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def library():
    facts = [Fact("EMPLOYEE", "≺", "PERSON"),
             Fact("ENGINEER", "≺", "EMPLOYEE")]
    for i in range(5000):
        facts.append(Fact(f"E{i}", "∈", "ENGINEER" if i % 3 else "EMPLOYEE"))
        facts.append(Fact(f"E{i}", "WORKS-FOR", f"D{i % 50}"))
        facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{i % 100}"))
        facts.append(Fact(f"E{i}", "KNOWS", f"SKILL{(7 * i) % 100}"))
    facts += [Fact(f"D{d}", "LOCATED-IN", f"CITY{d}") for d in range(50)]
    return Database(facts)


def write(db, edit):
    def step():
        db.add_fact(edit)
        db.remove_fact(edit)
        db.view()
    return step


row = {}
cold_world = build_world(1, "browse-cold")
worlds = {"cold": (Database(cold_world.facts),
                   Fact("EMP0", "KNOWS", "SKILL0")),
          "library": (library(), Fact("E0", "KNOWS", "NEWSKILL"))}
for name, (db, edit) in worlds.items():
    for limit in (1, 2):
        db.limit(limit)
        db.view()
        row[f"{name}_write_l{limit}_ms"] = p50_ms(write(db, edit), 15)

db = worlds["cold"][0]
db.hierarchy()
ops = {"navigate": db.navigate, "probe": db.probe, "query": db.query}
times = {}
for index, employee in enumerate(cold_world.order[:40]):
    for kind, verb, argument in browse_session(cold_world, employee, index):
        started = time.perf_counter()
        ops[verb](argument)
        times.setdefault(kind, []).append(time.perf_counter() - started)
for kind, spent in times.items():
    row[f"cold_{kind}_ms"] = 1e3 * statistics.median(spent)

db = worlds["library"][0]
db.hierarchy()
row["library_star_ms"] = p50_ms(lambda: db.navigate("(E7, *, *)"), 25)
row["library_named_ms"] = p50_ms(
    lambda: db.query("(x, WORKS-FOR.D7.LOCATED-IN, y)"), 25)
row["library_probe_ms"] = p50_ms(
    lambda: db.probe("(E7, LIVES-IN, CITY7)"), 25)
print(json.dumps(row))
'''


def summarize(out: str) -> None:
    by_tree = {}
    with open(out) as log:
        for line in log:
            row = json.loads(line)
            by_tree.setdefault(row.pop("tree"), []).append(row)
    trees = list(by_tree)
    metrics = [key for key in by_tree[trees[0]][0] if key != "round"]
    print("metric".ljust(22) + "".join(t.rjust(14) for t in trees))
    for metric in metrics:
        print(metric.ljust(22) + "".join(
            f"{statistics.median(r[metric] for r in by_tree[t]):14.3f}"
            for t in trees))


def main(argv) -> int:
    if argv[0] == "--summarize":
        summarize(argv[1])
        return 0
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
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
