"""What a ``≺`` write costs the generalization lattice, trees interleaved.

    python docs/measurements/pr52/lattice_cost.py OUT ROUNDS TREE...
    python docs/measurements/pr52/lattice_cost.py --summarize OUT

Each round runs one child per tree, in the order given, pinned to one
CPU when ``taskset`` exists; compare trees within a round.  A child
builds the macro benchmark's 5 000-employee write-mix world (seed 1,
about 1 100 ``≺`` facts in its closure) as a library ``Database``,
builds its lattice, and reports p50 times in milliseconds:

* ``one_isa_ms``: ``hierarchy()`` after one new ``≺`` fact, 15 times
  (each fact is removed again, and the lattice brought up to date,
  before the next);
* ``batch_isa_ms``: ``hierarchy()`` after a 256-``≺`` ``add_facts``,
  7 times (each batch removed again the same way);
* ``service_ack_ms``: a ``DatabaseService`` over the same database
  acknowledging one 256-``≺`` ``add_facts`` (one ``add_many``
  ticket: apply, lattice, publish), 5 batches of new classes that
  stay.

``isa_facts`` is the closure's ``≺`` count before the first write.
One JSON line per child goes to OUT, with its tree and round.
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
from repro.core.facts import Fact, Template, Variable
from repro.serve import DatabaseService
from world import build_world

ISA = "≺"
db = Database(build_world(1, "write-mix").facts)
db.view()
db.hierarchy()
isa = list(db.closure().store.match(
    Template(Variable("s"), ISA, Variable("t"))))
parents = sorted({f.target for f in isa})[:8]


def timed_hierarchy(batch):
    db.add_facts(batch)
    started = time.perf_counter()
    db.hierarchy()
    took = time.perf_counter() - started
    for f in batch:
        db.remove_fact(f)
    db.hierarchy()
    return 1e3 * took


def batch(tag, size):
    return [Fact(f"{tag}-{i}", ISA, parents[i % len(parents)])
            for i in range(size)]


row = {"isa_facts": len(isa)}
row["one_isa_ms"] = statistics.median(
    timed_hierarchy(batch(f"ONE{k}", 1)) for k in range(15))
row["batch_isa_ms"] = statistics.median(
    timed_hierarchy(batch(f"MANY{k}", 256)) for k in range(7))
service = DatabaseService(db)
acks = []
for k in range(5):
    load = [tuple(f) for f in batch(f"LOAD{k}", 256)]
    started = time.perf_counter()
    assert service.add_facts(load) == 256
    acks.append(1e3 * (time.perf_counter() - started))
service.close()
row["service_ack_ms"] = statistics.median(acks)
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
    print("metric".ljust(16) + "".join(t.rjust(14) for t in trees))
    for metric in metrics:
        print(metric.ljust(16) + "".join(
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
                done = subprocess.run(
                    pin + [sys.executable, "-c", CHILD, tree],
                    check=True, capture_output=True, text=True)
                row = json.loads(done.stdout.strip().splitlines()[-1])
                row.update(tree=tree.rstrip("/").rsplit("/", 1)[-1], round=n)
                log.write(json.dumps(row) + "\n")
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
