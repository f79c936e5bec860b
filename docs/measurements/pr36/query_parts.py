"""query_parts.py PARENT CHANGE [ROUNDS] — the fixed cost of one
compiled evaluation, part by part, two trees interleaved on one CPU.

    taskset -c 1 python query_parts.py PARENT CHANGE 30

Each tree gets one worker process (the tree's own ``src/`` on its
path).  A worker builds the same small compacted database (8
employees, 3 departments) and, per round, times 500 of each:

* ``idexec``: ``exec._id_exec(view)`` — a fresh id-space state, built
  once per evaluator;
* ``run``: ``exec._run_plan`` of a freshly lowered 3-atom join on a
  shared id-space state (so each atom binds its annotation);
* ``compile``: ``compile_query`` of the same join;
* ``evaluate``: ``CompiledEvaluator(view).evaluate`` end to end.

The driver alternates which worker goes first every round and prints,
per part, each side's median over the rounds in microseconds.  The
database is small on purpose: the join's work is tiny, so what a tree
adds per evaluation shows up, not what it adds per row.
"""

import json
import statistics
import subprocess
import sys

WORKER = r'''
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from repro.db import Database
from repro.query import compile as cm, exec as ex
from repro.query.exec import CompiledEvaluator
from repro.query.parser import parse_query

db = Database()
for i in range(8):
    db.add(f"E{i}", "∈", "ENGINEER" if i % 2 else "CLERK")
    db.add(f"E{i}", "WORKS-FOR", f"D{i % 3}")
db.add("ENGINEER", "≺", "EMPLOYEE")
db.add("D0", "∈", "DEPARTMENT")
db.add("D1", "∈", "DEPARTMENT")
db.view()
db.compact_store()
view = db.view()
query = parse_query(
    "(x, ∈, ENGINEER) and (x, WORKS-FOR, y) and (y, ∈, DEPARTMENT)")
clock = time.perf_counter
N = 500


def parts():
    out = {}
    started = clock()
    for _ in range(N):
        ex._id_exec(view)
    out["idexec"] = (clock() - started) / N
    ids = ex._id_exec(view)
    plans = [cm.compile_query(query, view) for _ in range(N)]
    started = clock()
    for plan in plans:
        ex._run_plan(plan, view, ex.unit_table(), ids, False)
    out["run"] = (clock() - started) / N
    started = clock()
    for _ in range(N):
        cm.compile_query(query, view)
    out["compile"] = (clock() - started) / N
    started = clock()
    for _ in range(N):
        CompiledEvaluator(view).evaluate(query)
    out["evaluate"] = (clock() - started) / N
    return out


for _ in range(3):
    parts()
print("ready", flush=True)
for _line in sys.stdin:
    print(json.dumps(parts()), flush=True)
'''


def main(parent: str, change: str, rounds: int) -> None:
    trees = {"parent": parent, "change": change}
    workers = {
        side: subprocess.Popen([sys.executable, "-c", WORKER, tree],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               text=True)
        for side, tree in trees.items()}
    try:
        for worker in workers.values():
            assert worker.stdout.readline().strip() == "ready"
        samples = {side: [] for side in workers}
        for k in range(rounds):
            for side in (("parent", "change") if k % 2 == 0
                         else ("change", "parent")):
                worker = workers[side]
                worker.stdin.write("go\n")
                worker.stdin.flush()
                samples[side].append(json.loads(worker.stdout.readline()))
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    report = {"rounds": rounds}
    for part in samples["parent"][0]:
        report[part] = {
            side: round(1e6 * statistics.median(r[part] for r in runs), 1)
            for side, runs in samples.items()}
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2],
         int(sys.argv[3]) if len(sys.argv) > 3 else 30)
