"""setup_rss.py PARENT CHANGE OUT.jsonl [ROUNDS] — the browse-cold
server's set-up, phase by phase, in fresh interpreters of two trees:
memory after each phase, and the time of a full recompute on the
served master.

Each probe is one process doing what ``benchmarks/macro/child.py``
does up to ``DatabaseService``: the child's imports (``inproc``, then
``DatabaseService``, ``ServiceServer``, ``open_database``),
``open_database`` (load), ``db.view()`` (closure), ``compact_store()``
(compact), ``DatabaseService`` (service).  After each phase it reads
``VmHWM`` (the peak so far) and ``VmRSS`` from ``/proc/self/status``,
in MB, and the phase's wall time.  It also records which store class
holds the base and the closure after the closure phase, and the
overlay sizes there.

Then, on the served master (the service closed, its database kept),
``recompute_s`` times ``exclude("mem-source")`` + ``view()`` + a fold
(``compact_store()``) and ``include("mem-source")`` + ``view()`` + a
fold, three times each, and keeps the median of the six: what a served
``exclude`` / ``include`` costs the writer before its publish.

The trees alternate, the side that runs first swapped every round; the
script is pinned to one CPU.  The directory is the browse-cold world of
seed 1, written once by PARENT's ``benchmarks/macro/world.py``.  One
JSON object per line to OUT.jsonl.  Run it alone.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = """
import json, statistics, sys, time
src, macro, directory = sys.argv[1:4]
sys.path[:0] = [src, macro]

def memory():
    with open("/proc/self/status") as handle:
        fields = dict(line.split(":", 1) for line in handle)
    return {key: int(fields[key].split()[0]) / 1024.0
            for key in ("VmHWM", "VmRSS")}

row = {}
def phase(name, fn):
    began = time.perf_counter()
    value = fn()
    row[name + "_s"] = time.perf_counter() - began
    for key, mb in memory().items():
        row[name + "_" + key] = round(mb, 1)
    return value

def imports():
    import inproc
    from repro.serve import DatabaseService
    from repro.serve.net import ServiceServer
    from repro.storage.session import open_database
    return DatabaseService, open_database

DatabaseService, open_database = phase("import", imports)
db, session = phase("load", lambda: open_database(directory))
phase("closure", db.view)
for name, store in (("base", db.facts),
                    ("closure", db.standard_closure().store)):
    row[name + "_store"] = type(store).__name__
    row[name + "_overlay"] = getattr(store, "overlay_size", None)
session.close()
phase("compact", db.compact_store)
service = phase("service", lambda: DatabaseService(db))
service.close()
times = []
for _ in range(3):
    for control in (db.exclude, db.include):
        began = time.perf_counter()
        control("mem-source")
        db.view()
        db.compact_store()
        times.append(time.perf_counter() - began)
row["recompute_s"] = statistics.median(times)
print(json.dumps(row))
"""


def probe(tree: str, directory: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(Path(tree) / "src"),
         str(Path(tree) / "benchmarks" / "macro"), directory],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(parent: str, change: str, log: str, rounds: int) -> None:
    os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})
    with tempfile.TemporaryDirectory() as scratch:
        directory = str(Path(scratch) / "browse-cold")
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
             "from world import build_world, write_directory\n"
             "from pathlib import Path\n"
             "d = Path(sys.argv[3]); d.mkdir(parents=True)\n"
             "write_directory(build_world(1, 'browse-cold'), d,"
             " 'browse-cold')",
             str(Path(parent) / "src"),
             str(Path(parent) / "benchmarks" / "macro"), directory],
            check=True)
        for index in range(rounds):
            order = (parent, change) if index % 2 == 0 else (change, parent)
            for position, tree in enumerate(order):
                row = probe(tree, directory)
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(
                        {"side": "parent" if tree == parent else "change",
                         "round": index,
                         "ran": "first" if position == 0 else "second",
                         **row}) + "\n")
            print(f"round {index}: done", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3],
         int(sys.argv[4]) if len(sys.argv) > 4 else 4)
