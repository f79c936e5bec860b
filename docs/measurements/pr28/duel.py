"""Two trees, one CPU, the same minutes: stage times side by side.

    python duel.py PARENT CHANGE [SEED] [overlay]      # the driver
    python duel.py --worker TREE SEED [overlay]        # what it starts

The host this was written on moves between two speeds about 25 % apart
every few seconds, so two runs made one after the other differ by what
the host did.  The driver starts one worker per tree, both pinned to
the same CPU, and hands them the same slice of work in turn — ten
texts at a time, the side that goes first swapped every slice — so
both sides sample the same phases.  A worker builds the macro
benchmark's browse-cold world with its tree's own
``benchmarks/macro/world.py`` (``overlay``: eight facts added and
eight removed after compaction, so every probe merges an overlay and a
tombstone layer) and times, per slice, on texts it has never seen:

* the session's 100-row join, stage by stage (``parse`` · ``safety`` ·
  ``lower`` · ``run`` · ``project``, as in ``stages.py``);
* the three probes of ``../pr26/menus.py`` through ``db.probe``:
  ``knows`` (one wave, three candidates), ``chain`` (four waves, 15
  candidates) and ``ok`` (a probe that succeeds).

The driver prints one JSON object: per side the p50 of every series
over all slices, and the change's p50 as a ratio of the parent's.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stages import STAGES, load

SLICES = 30
JOINS = 10      # join texts per slice
PROBES = 4      # probes of each kind per slice


def worker(tree: Path, seed: int, overlay: bool) -> None:
    loaded = load(tree, seed, overlay)
    world, db, join = loaded.world, loaded.db, loaded.join
    db.hierarchy()
    clock = time.perf_counter

    def probe(text: str) -> float:
        started = clock()
        db.probe(text)
        return clock() - started

    order = world.order
    for employee in order[-40:-8]:      # warm the code, off the slices
        join(employee)
        probe(f"({employee}, KNOWS, {world.lacks[employee]})")
    print("ready", flush=True)
    for line in sys.stdin:
        k = int(line)
        joiners = order[k * JOINS:(k + 1) * JOINS]
        probers = order[1000 + k * PROBES:1000 + (k + 1) * PROBES]
        out = {stage: [] for stage in STAGES}
        for employee in joiners:
            times, rows = join(employee)
            assert rows == 100
            for stage, seconds in zip(STAGES, times):
                out[stage].append(seconds)
        out["knows"] = [probe(f"({e}, KNOWS, {world.lacks[e]})")
                        for e in probers]
        out["chain"] = [
            probe(f"(SOMEONE, R{(k * PROBES + n) % loaded.chains}C0, THING)")
            for n in range(PROBES)]
        out["ok"] = [probe(f"({e}, EARNS, s)") for e in probers]
        print(json.dumps(out), flush=True)


def driver(parent: str, change: str, seed: str, overlay: bool) -> None:
    extra = ["overlay"] if overlay else []
    sides = {}
    for side, tree in (("parent", parent), ("change", change)):
        sides[side] = subprocess.Popen(
            [sys.executable, __file__, "--worker", tree, seed] + extra,
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
    report = {"seed": int(seed), "overlay": overlay, "slices": SLICES}
    for side, series in samples.items():
        p50 = {name: round(1e6 * statistics.median(seconds), 1)
               for name, seconds in series.items()}
        p50["total"] = round(sum(p50[stage] for stage in STAGES), 1)
        report[side] = p50
    report["change_over_parent"] = {
        name: round(report["change"][name] / report["parent"][name], 3)
        for name in report["parent"]}
    print(json.dumps(report))


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        worker(Path(sys.argv[2]).resolve(), int(sys.argv[3]),
               len(sys.argv) > 4 and sys.argv[4] == "overlay")
    else:
        driver(sys.argv[1], sys.argv[2],
               sys.argv[3] if len(sys.argv) > 3 else "1",
               len(sys.argv) > 4 and sys.argv[4] == "overlay")
