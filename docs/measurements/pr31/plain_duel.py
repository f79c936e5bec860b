"""Two trees, one CPU: compiled queries and probes on a plain store.

    python plain_duel.py PARENT CHANGE [SEED]       # compare two trees
    python plain_duel.py --worker TREE SEED         # one side

A plain ``Database()`` — no ``compact_store()``, so a hash store — is
what a library caller gets.  Each worker imports its tree's ``repro``
and macro world, pins itself to one CPU, builds the macro world at
2 000 employees in 20 departments on the hash store, and answers
slices of work handed to both sides in turn (the side that goes
first swapped every slice, as in ``../pr28/duel.py``).  Per slice, on
texts neither side has seen:

* ``query``: the session's join for ten employees through
  ``db.query`` (parse, safety, lowering, execution, projection);
* ``knows`` / ``chain`` / ``ok``: four probes each through
  ``db.probe`` — a one-wave ``KNOWS`` menu, a depth-4 chain menu, and
  a probe that succeeds.

The comparison prints one JSON object: per side the p50 (µs) of every
series over all slices, and the change's p50 as a ratio of the
parent's.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SLICES = 30
JOINS = 10
PROBES = 4
EMPLOYEES, DEPARTMENTS = 2000, 20


def worker(tree: Path, seed: int) -> None:
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(tree / "benchmarks" / "macro"))
    import wire
    import world as world_mod

    from repro.db import Database

    wire.pin_to_one_cpu()
    world_mod.WORLD_SIZE["browse-cold"] = (EMPLOYEES, DEPARTMENTS)
    world = world_mod.build_world(seed, "browse-cold")
    db = Database(world.facts, with_axioms=False)
    db.view()
    db.hierarchy()
    clock = time.perf_counter

    def timed(call, text: str) -> float:
        started = clock()
        call(text)
        return clock() - started

    def join(employee: str) -> str:
        return (f"({employee}, WORKS-FOR, d) and (d, ∈, DEPARTMENT)"
                f" and (x, WORKS-FOR, d) and (x, EARNS, s)")

    order, chains = world.order, world_mod.CHAINS
    for employee in order[-40:-8]:      # warm the code, off the slices
        db.query(join(employee))
        db.probe(f"({employee}, KNOWS, {world.lacks[employee]})")
    print("ready", flush=True)
    for line in sys.stdin:
        k = int(line)
        joiners = order[k * JOINS:(k + 1) * JOINS]
        probers = order[1000 + k * PROBES:1000 + (k + 1) * PROBES]
        out = {
            "query": [timed(db.query, join(e)) for e in joiners],
            "knows": [timed(db.probe, f"({e}, KNOWS, {world.lacks[e]})")
                      for e in probers],
            "chain": [timed(db.probe, f"(SOMEONE, R{chain % chains}C0,"
                                      f" THING)")
                      for chain in range(k * PROBES, (k + 1) * PROBES)],
            "ok": [timed(db.probe, f"({e}, EARNS, s)") for e in probers],
        }
        print(json.dumps(out), flush=True)


def compare(parent: str, change: str, seed: str) -> None:
    sides = {}
    for side, tree in (("parent", parent), ("change", change)):
        sides[side] = subprocess.Popen(
            [sys.executable, __file__, "--worker", tree, seed],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        for process in sides.values():
            assert process.stdout.readline().strip() == "ready"
        samples = {side: {} for side in sides}
        for k in range(SLICES):
            for side in (("parent", "change") if k % 2 == 0
                         else ("change", "parent")):
                process = sides[side]
                process.stdin.write(f"{k}\n")
                process.stdin.flush()
                for series, seconds in json.loads(
                        process.stdout.readline()).items():
                    samples[side].setdefault(series, []).extend(seconds)
    finally:
        for process in sides.values():
            process.stdin.close()
            process.wait()
    report = {"seed": int(seed), "slices": SLICES,
              "world": [EMPLOYEES, DEPARTMENTS]}
    for side, series in samples.items():
        report[side] = {name: round(1e6 * statistics.median(seconds), 1)
                        for name, seconds in series.items()}
    report["change_over_parent"] = {
        name: round(report["change"][name] / report["parent"][name], 3)
        for name in report["parent"]}
    print(json.dumps(report))


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        worker(Path(sys.argv[2]).resolve(), int(sys.argv[3]))
    else:
        compare(sys.argv[1], sys.argv[2],
                sys.argv[3] if len(sys.argv) > 3 else "1")
