"""gc_share.py TREE — 40 ingest-recover sessions through a durable service,
with a gc callback: wall time, collections and seconds per generation,
publish pause total / max.  (Parent: 3.2 of 4.5 s are collections set off
by copying hash indexes.)"""
import sys, time, tempfile, pathlib, gc, os
tree = sys.argv[1]
os.sched_setaffinity(0, {1})
sys.path.insert(0, tree + "/src"); sys.path.insert(0, tree + "/benchmarks/macro")
from world import build_world, write_directory, session_at
from repro.serve import DatabaseService
from repro.storage.session import open_database
world = build_world(1, "ingest-recover", False)
d = pathlib.Path(tempfile.mkdtemp())
write_directory(world, d, "ingest-recover")
db, session = open_database(d); db.view()
service = DatabaseService(db, session=session)
spent = {0: [0, 0.0], 1: [0, 0.0], 2: [0, 0.0]}
start = [0.0]
def cb(phase, info):
    if phase == "start": start[0] = time.perf_counter()
    else:
        g = info["generation"]; spent[g][0] += 1; spent[g][1] += time.perf_counter() - start[0]
gc.callbacks.append(cb)
t0 = time.perf_counter()
for i in range(40):
    for kind, verb, arg in session_at(world, "ingest-recover", i):
        if verb in ("add", "remove"): getattr(service, verb)(*arg)
        else: getattr(service, verb)(arg)
print("wall", time.perf_counter() - t0, {g: (n, round(1e3 * s, 2)) for g, (n, s) in spent.items()}, "tracked objs", len(gc.get_objects()))
st = service.stats(); print(st["publish_pause_total_s"], st["publish_pause_max_s"], st["snapshot_publishes"])
service.close()
import shutil; shutil.rmtree(d)
