"""Two trees, one CPU, the same minutes: the closure's write path.

    taskset -c 1 python3 write_duel.py PARENT CHANGE [gc_off]   # conductor
    python3 write_duel.py --worker TREE [gc_off]               # started

The conductor starts one worker per tree (both inherit its CPU
pin) and hands them the same slice of work in turn, the side that goes
first swapped every slice, so both sides sample the same host phases
(the shared host moves between two speeds about 25 % apart).  A worker
holds two databases built with its tree's own
``benchmarks/macro/world.py`` (seed 1): ``hash`` — the ingest-recover
world on the hash store, as a library ``Database`` keeps it — and
``interned`` — the browse-cold world compacted, the store the traced
macro run measures ``dispatch.*`` on.  Per slice and database it
removes four stored ``KNOWS`` facts, each followed by ``view()``
(``dispatch.remove_p50_us``), then adds them back, each followed by
``view()`` (``dispatch.incremental_add_p50_us``) — the definitions of
``benchmarks/macro/inproc.py::master_write_path``.  Forty facts per
database, ten slices a round, ``ROUNDS`` rounds.  ``gc_off`` disables
the collector in the workers.

The conductor prints one JSON object: per side the p50 of each series over
every sample, and the change's p50 as a ratio of the parent's.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import time

ROUNDS = 5
FACTS = 40
PER_SLICE = 4


def worker(tree: str, gc_off: bool) -> None:
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    from benchmarks.macro.world import build_world
    from repro.core.facts import Fact
    from repro.db import Database

    dbs = {}
    for name, workload, compact in (("hash", "ingest-recover", False),
                                    ("interned", "browse-cold", True)):
        db = Database(build_world(1, workload).facts)
        db.standard_closure()
        if compact:
            db.compact_store()
        db.view()
        knows = sorted(f for f in db.facts if f[1] == "KNOWS")[:FACTS]
        dbs[name] = (db, [Fact(*f) for f in knows])
    if gc_off:
        gc.disable()
    clock = time.perf_counter
    print("ready", flush=True)
    for line in sys.stdin:
        k = int(line) % (FACTS // PER_SLICE)
        out = {}
        for name, (db, knows) in dbs.items():
            chosen = knows[k * PER_SLICE:(k + 1) * PER_SLICE]
            removes, adds = [], []
            for fact in chosen:
                started = clock()
                db.remove_fact(fact)
                db.view()
                removes.append(clock() - started)
            for fact in chosen:
                started = clock()
                db.add_fact(fact)
                db.view()
                adds.append(clock() - started)
            out[f"{name}.remove"] = removes
            out[f"{name}.add"] = adds
        print(json.dumps(out), flush=True)


def conduct(parent: str, change: str, gc_off: bool) -> None:
    extra = ["gc_off"] if gc_off else []
    sides = {}
    for side, tree in (("parent", parent), ("change", change)):
        sides[side] = subprocess.Popen(
            [sys.executable, __file__, "--worker",
             os.path.abspath(tree)] + extra,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    samples = {side: {} for side in sides}
    try:
        for process in sides.values():
            assert process.stdout.readline().strip() == "ready"
        for k in range(ROUNDS * FACTS // PER_SLICE):
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
    report = {"gc_off": gc_off}
    for side, series in samples.items():
        report[side] = {name: round(1e6 * statistics.median(seconds), 1)
                        for name, seconds in series.items()}
    report["change_over_parent"] = {
        name: round(report["change"][name] / report["parent"][name], 3)
        for name in report["parent"]}
    print(json.dumps(report))


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        worker(sys.argv[2], len(sys.argv) > 3 and sys.argv[3] == "gc_off")
    else:
        conduct(sys.argv[1], sys.argv[2],
               len(sys.argv) > 3 and sys.argv[3] == "gc_off")
