"""folds_writemix.py TREE — the write-mix stack without the pool: compacted
database, service, 60 curator sessions in process; prints stats()["store"]."""
import sys, os
tree = sys.argv[1]
sys.path.insert(0, tree + "/src"); sys.path.insert(0, tree + "/benchmarks/macro")
from world import build_world, session_at
from repro.db import Database
from repro.serve import DatabaseService
world = build_world(1, "write-mix", False)
db = Database(world.facts, with_axioms=False); db.view(); db.compact_store()
generations = (db.facts.generation, db.closure().store.generation)
service = DatabaseService(db)
assert (service._db.facts.generation, service._db.closure().store.generation) == generations
peak = 0
for i in range(60):
    for kind, verb, arg in session_at(world, "write-mix", i):
        if verb in ("add", "remove"):
            getattr(service, verb)(*arg)
            store = service.stats()["store"]
            peak = max(peak, store["overlay_facts"] + store["tombstones"])
        else:
            getattr(service, verb)(arg)
print("construction rebuilt nothing; after 60 sessions:", service.stats()["store"], "peak overlay+tombstones", peak)
service.close()
