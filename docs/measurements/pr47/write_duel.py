"""write_duel.py PARENT CHANGE OUT.jsonl [ROUNDS] — the master's fold,
its served heap, its share, its write path and a checkpoint, in fresh
interpreters of two trees.

Each probe is one process that sets up what ``benchmarks/macro/child.py``
serves on write-mix (``open_database`` → ``view()`` →
``compact_store()``) and then:

* folds five times: each fold follows a churn of the base heap (64
  stored ``KNOWS`` facts removed, 64 new ones added, then ``view()``),
  about the 128 facts outside the generation that make the serving
  writer fold; ``fold_p50_ms`` is the p50 of the five
  ``compact_store()`` calls;
* measures the served heap once the folds are done: ``generations``
  counts the distinct generations the base heap and the closure read,
  ``served_bytes`` sums their ``nbytes()``, and ``share_p50_ms`` is the
  p50 of five rounds of ``share()`` of each (the files are unlinked
  again);
* runs ``inproc.master_write_path`` (ten stored ``KNOWS`` facts
  removed and added back, each followed by ``view()``, and ten
  snapshots), then churns the heap once more and checkpoints it into a
  scratch directory, five times, for ``checkpoint_p50_ms``.

The trees alternate, the side that runs first swapped every round
(default 10 rounds); the script is pinned to one CPU.  The directory
is written once by PARENT's ``benchmarks/macro/world.py``.  One JSON
object per line to OUT.jsonl.  Run it alone.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = """
import json, statistics, sys, tempfile, time
src, macro, directory = sys.argv[1:4]
sys.path[:0] = [src, macro]
import inproc
from repro.core.facts import Fact
from repro.core.interned import unlink_generation
from repro.storage.session import DurableSession, open_database

db, session = open_database(directory)
db.view()
session.close()
db.compact_store()


def churn(serial):
    knows = sorted(db.facts.lookup(None, "KNOWS", None))[:64]
    for fact in knows:
        db.remove_fact(fact)
    for j in range(64):
        db.add_fact(Fact(f"EMP-NEW{serial}-{j}", "KNOWS", f"SKILL{j}"))
    db.view()


def p50_ms(times):
    return round(1e3 * statistics.median(times), 2)


folds = []
for serial in range(5):
    churn(serial)
    row = {"overlay": db.overlay_size}
    began = time.perf_counter()
    db.compact_store()
    folds.append(time.perf_counter() - began)
generations = {id(g): g for g in (db.facts.generation,
                                  db.closure().store.generation)}
shares = []
for _ in range(5):
    began = time.perf_counter()
    names = [g.share() for g in generations.values()]
    shares.append(time.perf_counter() - began)
    for name in names:
        unlink_generation(name)
row = {"fold_overlay": row["overlay"], "fold_p50_ms": p50_ms(folds),
       "generations": len(generations),
       "served_bytes": sum(g.nbytes() for g in generations.values()),
       "share_p50_ms": p50_ms(shares)}
row.update({key: round(value, 3)
            for key, value in inproc.master_write_path(db).items()})
churn(5)
times = []
with tempfile.TemporaryDirectory() as scratch, \\
        DurableSession(scratch) as target:
    for _ in range(5):
        began = time.perf_counter()
        target.checkpoint(db)
        times.append(time.perf_counter() - began)
row["checkpoint_p50_ms"] = p50_ms(times)
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
         int(sys.argv[4]) if len(sys.argv) > 4 else 10)
