"""Readers + a paced writer (one write per gap, no bursts) at batch_window 0 vs 0.002."""
import json, sys, statistics, threading, time
sys.path.insert(0, "/root/repo/benchmarks")
from bench_f11_serving import build_database, query_mix, percentile
from repro.serve import DatabaseService

def run(service, queries, readers, seconds, gap):
    stop = threading.Event()
    lat = [[] for _ in range(readers)]
    acks = []
    def reader(slot):
        mine = lat[slot]; i = slot * 1000
        while not stop.is_set():
            text = queries[i % len(queries)]; i += 1
            t = time.perf_counter(); service.query(text); mine.append(time.perf_counter() - t)
    def writer():
        i = 0
        while not stop.is_set():
            t = time.perf_counter()
            service.add(f"NEW{i}", "∈", "C0")
            acks.append(time.perf_counter() - t); i += 1
            if gap: time.sleep(gap)
    before = service.stats()["snapshot_publishes"]
    ts = [threading.Thread(target=reader, args=(s,)) for s in range(readers)] + [threading.Thread(target=writer)]
    start = time.perf_counter()
    for t in ts: t.start()
    time.sleep(seconds); stop.set()
    for t in ts: t.join()
    wall = time.perf_counter() - start
    flat = [x for s in lat for x in s]
    return {"reads_per_s": round(len(flat) / wall), "p50_us": round(percentile(flat, .5) * 1e6, 1),
            "p99_us": round(percentile(flat, .99) * 1e6, 1), "p999_us": round(percentile(flat, .999) * 1e6, 1),
            "writes": len(acks), "ack_p50_ms": round(percentile(acks, .5) * 1e3, 3),
            "publishes": service.stats()["snapshot_publishes"] - before}

shape = tuple(int(x) for x in sys.argv[1].split(","))
readers = int(sys.argv[2]); gap = float(sys.argv[3]); reps = int(sys.argv[4])
async_writers = 0
rows = {"0": [], "0.002": []}
for rep in range(reps):
    for window in ((0.0, 0.002) if rep % 2 == 0 else (0.002, 0.0)):
        db = build_database(*shape); queries = query_mix(db, 48)
        service = DatabaseService(db, batch_window=window)
        try: row = run(service, queries, readers, 1.5, gap)
        finally: service.close()
        rows["0" if not window else "0.002"].append(row); print(window, row, flush=True)
print("facts", len(db), "shape", shape, "readers", readers, "gap", gap)
for w in rows:
    print(w, {k: statistics.median(r[k] for r in rows[w]) for k in rows[w][0]})
json.dump(rows, open(f"/root/scratch/window/paced_{sys.argv[1]}_{readers}_{gap}.json", "w"), indent=1)
