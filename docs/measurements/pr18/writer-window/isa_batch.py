"""256 ≺ adds in one service batch on the 5 000-employee world; plus 256 individual sync ≺ adds' first probe."""
import sys, time, tempfile, pathlib, shutil, statistics
root = sys.argv[1]
sys.path.insert(0, root + "/src"); sys.path.insert(0, root + "/benchmarks/macro")
from world import build_world, write_directory
from repro.serve import DatabaseService
from repro.storage.session import open_database
w = build_world(1, "write-mix")
d = pathlib.Path(tempfile.mkdtemp(dir="/root/scratch"))
write_directory(w, d, "write-mix")
db, session = open_database(str(d))
db.view(); session.close(); db.compact_store()
shutil.rmtree(d)
s = DatabaseService(db)
isa = [f for f in s.read_view().match("(x, ≺, y)")]
parents = sorted({f.target for f in isa})[:8]
print("world ≺ facts in closure:", len(isa), "parents", parents[:3])
def first_probe():
    t = time.perf_counter(); s.read_view().hierarchy(); return (time.perf_counter() - t) * 1e3
for rnd in range(3):
    batch = [(f"NEWCLASS{rnd}-{i}", "≺", parents[i % len(parents)]) for i in range(256)]
    t = time.perf_counter(); n = s.add_facts(batch); ack = (time.perf_counter() - t) * 1e3
    st = s.stats()
    print(f"batch of 256 ≺ adds: added {n} ack {ack:.1f} ms  publish_pause_last {st['publish_pause_last_s']*1e3:.1f} ms  reader first hierarchy() {first_probe():.2f} ms")
acks = []
for i in range(20):
    t = time.perf_counter(); s.add(f"ONE{i}", "≺", parents[0]); acks.append((time.perf_counter() - t) * 1e3)
print(f"single ≺ add ack p50 {statistics.median(acks):.2f} ms; reader first hierarchy() {first_probe():.2f} ms")
print(s.read_view().stats()["hierarchy"])
s.close()
