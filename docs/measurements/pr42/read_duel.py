"""read_duel.py PARENT CHANGE OUT.jsonl [ROUNDS] [SESSIONS] — browse-cold
reads after the server's own set-up, in fresh interpreters of two trees.

Each probe is one process that sets up what ``benchmarks/macro/child.py``
serves on browse-cold (``open_database`` → ``view()`` →
``compact_store()`` → ``DatabaseService``) and then runs SESSIONS
(default 400) browse sessions of the seed-1 world in process, through
the service's read calls (``navigate`` / ``probe`` / ``query``): the
first 100 untimed, the rest timed per request.  Per kind it records
the p50 in µs; for the timed part, the minor page faults
(``getrusage``) and the collector's passes per generation.  The point
is the process state the set-up leaves behind — how much of the heap
it freed, and how many passes serving then meets — so no wire and no
client are involved.

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
import gc, json, resource, statistics, sys, time
src, macro, directory, sessions = sys.argv[1:5]
sys.path[:0] = [src, macro]
from world import browse_session, build_world
from repro.serve import DatabaseService
from repro.storage.session import open_database

world = build_world(1, "browse-cold")
db, session = open_database(directory)
db.view()
session.close()
db.compact_store()
service = DatabaseService(db)
plan = [browse_session(world, employee, index)
        for index, employee in enumerate(world.order[:int(sessions)])]
times = {}
warm = 100
for index, requests in enumerate(plan):
    if index == warm:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        passes = [s["collections"] for s in gc.get_stats()]
    for kind, verb, argument in requests:
        began = time.perf_counter()
        getattr(service, verb)(argument)
        if index >= warm:
            times.setdefault(kind, []).append(time.perf_counter() - began)
row = {kind + "_p50_us": round(1e6 * statistics.median(values), 1)
       for kind, values in times.items()}
row["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
row["collections"] = [s["collections"] - b
                      for s, b in zip(gc.get_stats(), passes)]
service.close()
print(json.dumps(row))
"""


def probe(tree: str, directory: str, sessions: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(Path(tree) / "src"),
         str(Path(tree) / "benchmarks" / "macro"), directory,
         str(sessions)],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(parent: str, change: str, log: str, rounds: int,
         sessions: int) -> None:
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
                row = probe(tree, directory, sessions)
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(
                        {"side": "parent" if tree == parent else "change",
                         "round": index,
                         "ran": "first" if position == 0 else "second",
                         **row}) + "\n")
            print(f"round {index}: done", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3],
         int(sys.argv[4]) if len(sys.argv) > 4 else 6,
         int(sys.argv[5]) if len(sys.argv) > 5 else 400)
