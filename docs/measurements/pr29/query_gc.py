"""Two trees, one CPU: the ingest-recover join query in process, with
the collector on and off.

    taskset -c 1 python3 query_gc.py PARENT CHANGE SCRATCH [gc_off]
    python3 query_gc.py --worker TREE DIRECTORY [gc_off]        # started

Each worker builds the ingest-recover durable directory of its tree's
``benchmarks/macro/world.py`` (seed 1) under SCRATCH, opens it and
builds the ``DatabaseService`` the way ``benchmarks/macro/child.py``
does for that workload (durable, no compaction), warms up with four
sessions, and then, per slice, issues the next five sessions of the
workload straight to the service — three adds, a remove, navigate,
probe, a failing probe and the join query — timing only the query.
The conductor alternates the workers slice by slice (first side swapped
every slice) and prints each side's p50 and the change's as a ratio of
the parent's.  With ``gc_off`` the workers disable the collector after
set-up, so what is left is the read code itself.
"""

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SLICES = 40
PER_SLICE = 5
WARMUP = 4


def worker(tree: str, directory: str, gc_off: bool) -> None:
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    from pathlib import Path

    from benchmarks.macro.world import (
        build_world, session_at, write_directory)
    from repro.serve import DatabaseService
    from repro.storage.session import open_database

    world = build_world(1, "ingest-recover")
    write_directory(world, Path(directory), "ingest-recover")
    db, session = open_database(directory)
    db.view()
    service = DatabaseService(db, session=session)
    clock = time.perf_counter

    def run(index):
        times = []
        for kind, verb, argument in session_at(world, "ingest-recover",
                                               index):
            call = getattr(service, verb)
            started = clock()
            call(*argument) if isinstance(argument, tuple) \
                else call(argument)
            if kind == "query":
                times.append(clock() - started)
        return times

    for index in range(WARMUP):
        run(index)
    if gc_off:
        gc.disable()
    print("ready", flush=True)
    try:
        for line in sys.stdin:
            k = int(line)
            first = WARMUP + k * PER_SLICE
            times = []
            for index in range(first, first + PER_SLICE):
                times += run(index)
            print(json.dumps(times), flush=True)
    finally:
        service.close()


def conduct(parent: str, change: str, scratch: str, gc_off: bool) -> None:
    extra = ["gc_off"] if gc_off else []
    sides = {}
    for side, tree in (("parent", parent), ("change", change)):
        directory = os.path.join(scratch, f"query_gc_{side}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        sides[side] = subprocess.Popen(
            [sys.executable, __file__, "--worker", os.path.abspath(tree),
             directory] + extra,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    samples = {side: [] for side in sides}
    try:
        for process in sides.values():
            assert process.stdout.readline().strip() == "ready"
        for k in range(SLICES):
            for side in (("parent", "change") if k % 2 == 0
                         else ("change", "parent")):
                process = sides[side]
                process.stdin.write(f"{k}\n")
                process.stdin.flush()
                samples[side] += json.loads(process.stdout.readline())
    finally:
        for process in sides.values():
            process.stdin.close()
            process.wait()
    p50 = {side: round(1e6 * statistics.median(values), 1)
           for side, values in samples.items()}
    print(json.dumps({"gc_off": gc_off, "queries": len(samples["parent"]),
                      "query_p50_us": p50,
                      "change_over_parent": round(
                          p50["change"] / p50["parent"], 3)}))


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3],
               len(sys.argv) > 4 and sys.argv[4] == "gc_off")
    else:
        conduct(sys.argv[1], sys.argv[2], sys.argv[3],
               len(sys.argv) > 4 and sys.argv[4] == "gc_off")
