"""read_kinds.py TREE MODE [K] — uncached read p50s per request kind on the
ingest-recover world after K ingest sessions of writes, no service: MODE
`plain` (hash store; the parent), `folded` (compacted after the writes) or
`overlay` (compacted before them; K <= 14 keeps the closure overlay under
the budget).  Prints median / min over 9 rebuilds of the per-rebuild p50."""
import sys, time, statistics, tempfile, pathlib, gc
tree, mode = sys.argv[1], sys.argv[2]
K = int(sys.argv[3]) if len(sys.argv) > 3 else 24
sys.path.insert(0, tree + "/src"); sys.path.insert(0, tree + "/benchmarks/macro")
from world import build_world, session_at
from repro.db import Database
from repro.core.facts import fact
world = build_world(1, "ingest-recover", False)
def build():
    db = Database(world.facts, with_axioms=False)
    db.view()
    if mode != "plain":
        db.compact_store()
    for i in range(K):
        for kind, verb, arg in session_at(world, "ingest-recover", i):
            if verb == "add": db.add_fact(fact(*arg))
            elif verb == "remove": db.remove_fact(fact(*arg))
    db.view(); db.hierarchy()
    if mode == "folded":
        db.compact_store(); db.view(); db.hierarchy()
    return db
res = {}
import os
os.sched_setaffinity(0, {1})
per_rep = {}
for rep in range(9):
    res = {}
    db = build()
    snap = db.snapshot(); snap.view(); snap.hierarchy()
    gc.collect()
    for i in range(K):
        for kind, verb, arg in session_at(world, "ingest-recover", i):
            if verb in ("add", "remove"): continue
            t = time.perf_counter()
            r = getattr(snap, verb)(arg)
            if verb == "navigate": r.render()
            res.setdefault(kind, []).append(time.perf_counter() - t)
    for k, v in res.items():
        per_rep.setdefault(k, []).append(statistics.median(v))
res = {k: v for k, v in per_rep.items()}
print(mode, getattr(db.facts, "overlay_size", None), getattr(db.closure().store, "overlay_size", None),
      "  ".join(f"{k} {1e6*statistics.median(v):7.1f}/{1e6*min(v):7.1f}" for k, v in res.items()))
