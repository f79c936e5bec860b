"""compile_p50.py TREE MODE [p] — `compile_query` p50 on the join queries of 12
ingest sessions against a snapshot of the ingest-recover world; MODE as in
read_kinds.py; a third argument adds a cProfile listing."""
import sys, time, statistics, os
tree, mode = sys.argv[1], sys.argv[2]
os.sched_setaffinity(0, {1})
K = 12
sys.path.insert(0, tree + "/src"); sys.path.insert(0, tree + "/benchmarks/macro")
from world import build_world, session_at
from repro.db import Database
from repro.core.facts import fact
from repro.query.parser import parse_query
from repro.query.compile import compile_query
world = build_world(1, "ingest-recover", False)
db = Database(world.facts, with_axioms=False); db.view()
if mode != "plain": db.compact_store()
for i in range(K):
    for kind, verb, arg in session_at(world, "ingest-recover", i):
        if verb == "add": db.add_fact(fact(*arg))
        elif verb == "remove": db.remove_fact(fact(*arg))
db.view(); db.hierarchy()
if mode == "folded":
    db.compact_store(); db.view()
snap = db.snapshot(); view = snap.view()
qs = [parse_query(arg) for i in range(K) for kind, verb, arg in session_at(world, "ingest-recover", i) if kind == "query"]
best = []
for rep in range(20):
    ts = []
    for q in qs:
        t = time.perf_counter(); compile_query(q, view); ts.append(time.perf_counter() - t)
    best.append(statistics.median(ts))
print(mode, f"compile p50 {1e6*statistics.median(best):.1f} min {1e6*min(best):.1f}")
if len(sys.argv) > 3:
    import cProfile, pstats
    pr = cProfile.Profile(); pr.enable()
    for rep in range(20):
        for q in qs: compile_query(q, view)
    pr.disable(); pstats.Stats(pr).sort_stats("tottime").print_stats(14)
