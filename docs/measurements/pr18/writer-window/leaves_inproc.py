"""inproc.leaves on a plain in-process service (no pool, no wire), per tree."""
import sys, json
root = sys.argv[1]
sys.path.insert(0, root + "/src"); sys.path.insert(0, root + "/benchmarks/macro")
from world import build_world, build_plan
import inproc
from repro.db import Database
from repro.serve import DatabaseService
w = build_world(1, "write-mix")
db = Database(w.facts, with_axioms=False); db.view(); db.compact_store()
s = DatabaseService(db)
plan = build_plan(w, "write-mix", per_round=24, rounds=1, warmup=0)
texts = {k: [] for k in ("navigate", "probe", "menu", "query")}
for session in plan.rounds[0]:
    for kind, verb, arg in session:
        if kind in texts: texts[kind].append(arg)
out = {}
for rep in range(3):
    m = inproc.leaves(s, texts)
    for k, v in m.items(): out.setdefault(k, []).append(round(v, 2))
for k in ("parser.parse_p50_us","compile.compile_p50_us","exec.join_p50_us","navigation.star_p50_us","store.match_p50_us","retraction.ok_probe_p50_us","retraction.menu_cold_p50_us"):
    print(f"{k:34s}", out[k])
s.close()
