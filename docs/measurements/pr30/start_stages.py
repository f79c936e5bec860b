"""start_stages.py PARENT CHANGE OUT.jsonl [ROUNDS] — the browse-cold
server's start, stage by stage, in fresh interpreters of two trees,
with the cyclic collector on and off.

Each probe is one process doing what ``benchmarks/macro/child.py``
does up to ``DatabaseService``: the child's imports (``inproc``, then
``DatabaseService``, ``ServiceServer``, ``open_database``),
``open_database`` (load), ``db.view()`` (closure), ``compact_store()``
(compact), ``DatabaseService`` (service).  Per stage it records the
wall time, the collections per generation and the time spent inside
them (``gc.callbacks``); ``heap_objects`` is ``len(gc.get_objects())``
after the imports.  The trees alternate, the side that runs first
swapped every round, collector on then off within a round; the script
is pinned to one CPU.  The directory is the browse-cold world of seed 1,
written once by PARENT's ``benchmarks/macro/world.py``.

One JSON object per line to OUT.jsonl.  Run it alone.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

parent, change, log = sys.argv[1:4]
rounds = int(sys.argv[4]) if len(sys.argv) > 4 else 4

PROBE = """
import gc, json, sys, time
src, macro, directory, collector = sys.argv[1:5]
sys.path[:0] = [src, macro]
pauses = [0.0]
started = [0.0]
def on_gc(phase, info):
    if phase == "start":
        started[0] = time.perf_counter()
    else:
        pauses[0] += time.perf_counter() - started[0]
gc.callbacks.append(on_gc)
if collector == "off":
    gc.disable()
import inproc
from repro.serve import DatabaseService
from repro.serve.net import ServiceServer
from repro.storage.session import open_database
row = {"heap_objects": len(gc.get_objects())}
def stage(name, fn):
    before = [s["collections"] for s in gc.get_stats()]
    paused = pauses[0]
    began = time.perf_counter()
    value = fn()
    row[name + "_s"] = time.perf_counter() - began
    row[name + "_gc_s"] = pauses[0] - paused
    row[name + "_collections"] = [s["collections"] - b for s, b in
                                  zip(gc.get_stats(), before)]
    return value
db, session = stage("load", lambda: open_database(directory))
stage("closure", db.view)
session.close()
stage("compact", db.compact_store)
service = stage("service", lambda: DatabaseService(db))
service.close()
print(json.dumps(row))
"""


def probe(tree: str, directory: str, collector: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(Path(tree) / "src"),
         str(Path(tree) / "benchmarks" / "macro"), directory, collector],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})
with tempfile.TemporaryDirectory() as scratch:
    directory = str(Path(scratch) / "browse-cold")
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
         "from world import build_world, write_directory\n"
         "from pathlib import Path\n"
         "d = Path(sys.argv[3]); d.mkdir(parents=True)\n"
         "write_directory(build_world(1, 'browse-cold'), d, 'browse-cold')",
         str(Path(parent) / "src"), str(Path(parent) / "benchmarks" / "macro"),
         directory], check=True)
    for index in range(rounds):
        order = (parent, change) if index % 2 == 0 else (change, parent)
        for collector in ("on", "off"):
            for position, tree in enumerate(order):
                row = probe(tree, directory, collector)
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(
                        {"side": "parent" if tree == parent else "change",
                         "round": index, "collector": collector,
                         "ran": "first" if position == 0 else "second",
                         **row}) + "\n")
        print(f"round {index}: done", file=sys.stderr)
