"""write_duel.py PARENT CHANGE OUT.jsonl [ROUNDS] — the master's write
path and a checkpoint, in fresh interpreters of two trees.

Each probe is one process that sets up what ``benchmarks/macro/child.py``
serves on write-mix (``open_database`` → ``view()`` → ``compact_store()``)
and then runs ``inproc.master_write_path`` on that master: ten stored
``KNOWS`` facts removed and added back, each followed by ``view()``,
and ten snapshots (the p50 of each, as the traced macro run reports
them).  It then churns the base heap (one remove, one add) and
checkpoints it into a scratch directory: once under ``tracemalloc``,
recording the bytes still counted after that first checkpoint and a
``gc.collect()`` (a generation that kept the facts it decodes would
hold one ``Fact`` per base fact there), then five times more for the
checkpoint's p50.

The trees alternate, the side that runs first swapped every round
(default 6 rounds); the script is pinned to one CPU.  The directory is
written once by PARENT's ``benchmarks/macro/world.py``.  One JSON object
per line to OUT.jsonl.  Run it alone.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = """
import gc, json, statistics, sys, tempfile, time, tracemalloc
src, macro, directory = sys.argv[1:4]
sys.path[:0] = [src, macro]
import inproc
from repro.core.facts import Fact
from repro.storage.session import DurableSession, open_database

db, session = open_database(directory)
db.view()
session.close()
db.compact_store()
row = {key: round(value, 3)
       for key, value in inproc.master_write_path(db).items()}
db.remove_fact(sorted(db.facts.lookup(None, "KNOWS", None))[0])
db.add_fact(Fact("EMP-NEW", "KNOWS", "EMP-OTHER"))
times = []
with tempfile.TemporaryDirectory() as scratch, \\
        DurableSession(scratch) as target:
    gc.collect()
    tracemalloc.start()
    target.checkpoint(db)
    gc.collect()
    held, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    for _ in range(5):
        began = time.perf_counter()
        target.checkpoint(db)
        times.append(time.perf_counter() - began)
row["checkpoint_p50_ms"] = round(1e3 * statistics.median(times), 2)
row["checkpoint_held_bytes"] = held
row["base_facts"] = len(db.facts)
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
        directory = str(Path(scratch) / "write-mix")
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
             "from world import build_world, write_directory\n"
             "from pathlib import Path\n"
             "d = Path(sys.argv[3]); d.mkdir(parents=True)\n"
             "write_directory(build_world(1, 'write-mix'), d,"
             " 'write-mix')",
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
         int(sys.argv[4]) if len(sys.argv) > 4 else 6)
