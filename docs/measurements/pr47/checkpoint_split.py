"""checkpoint_split.py PARENT CHANGE OUT.jsonl [ROUNDS] — a checkpoint
of the write-mix master and its two largest parts, in fresh
interpreters of two trees.

Each probe sets up the master as ``write_duel.py`` does
(``open_database`` → ``view()`` → ``compact_store()``), churns and folds
it five times as there, churns it once more, and then times, p50 of
nine each: ``iter_ms``, listing the base heap (``list(db.facts)``);
``sort_ms``, sorting those rows as tuples (what ``write_snapshot``
does); ``checkpoint_ms``, a whole ``DurableSession.checkpoint`` into a
scratch directory.  ``descents`` counts the rows that sort before the
row listed just before them: how far the listed order is from sorted.

The trees alternate, the side that runs first swapped every round
(default 10 rounds); the script is pinned to one CPU.  The directory is
written once by PARENT's ``benchmarks/macro/world.py``.  One JSON
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
src, directory = sys.argv[1:3]
sys.path[:0] = [src]
from repro.core.facts import Fact
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


for serial in range(5):
    churn(serial)
    db.compact_store()
churn(5)


def p50_ms(work):
    times = []
    for _ in range(9):
        began = time.perf_counter()
        work()
        times.append(time.perf_counter() - began)
    return round(1e3 * statistics.median(times), 2)


rows = list(db.facts)
row = {"iter_ms": p50_ms(lambda: list(db.facts)),
       "sort_ms": p50_ms(lambda: sorted(map(tuple, rows))),
       "descents": sum(1 for a, b in zip(rows, rows[1:]) if b < a)}
with tempfile.TemporaryDirectory() as scratch, \\
        DurableSession(scratch) as target:
    row["checkpoint_ms"] = p50_ms(lambda: target.checkpoint(db))
print(json.dumps(row))
"""


def probe(tree: str, directory: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(Path(tree) / "src"), directory],
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
