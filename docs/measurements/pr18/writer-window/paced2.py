"""Fixed work: R readers x N cold-ish reads racing W async writes paced one per gap; window 0 vs 0.002."""
import json, sys, statistics, threading, time
sys.path.insert(0, "/root/repo/benchmarks")
from bench_f11_serving import build_database, query_mix, percentile
from repro.serve import DatabaseService

def run(service, queries, readers, ops, writes, gap):
    lat = [[] for _ in range(readers)]
    barrier = threading.Barrier(readers + 2)
    acked = []
    def reader(slot):
        barrier.wait(); mine = lat[slot]
        for i in range(ops):
            text = queries[(slot * ops + i) % len(queries)]
            t = time.perf_counter(); service.query(text); mine.append(time.perf_counter() - t)
    def writer():
        barrier.wait(); tickets = []; t0 = time.perf_counter()
        for i in range(writes):
            tickets.append((time.perf_counter(), service.add_async((f"NEW{i}", "∈", "C0"))))
            time.sleep(gap)
        for sent, ticket in tickets:
            ticket.result(120.0)
        acked.append(time.perf_counter() - t0)
    before = service.stats()
    ts = [threading.Thread(target=reader, args=(s,)) for s in range(readers)] + [threading.Thread(target=writer)]
    for t in ts: t.start()
    barrier.wait(); start = time.perf_counter()
    for t in ts[:-1]: t.join()
    wall = time.perf_counter() - start
    ts[-1].join()
    flat = [x for s in lat for x in s]
    after = service.stats()
    return {"reads_per_s": round(len(flat) / wall), "p50_us": round(percentile(flat, .5) * 1e6, 1),
            "p95_us": round(percentile(flat, .95) * 1e6, 1),
            "p99_us": round(percentile(flat, .99) * 1e6, 1),
            "writes_done_s": round(acked[0], 4),
            "publishes": after["snapshot_publishes"] - before["snapshot_publishes"]}

shape = tuple(int(x) for x in sys.argv[1].split(","))
readers, ops, writes, gap, reps = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), float(sys.argv[5]), int(sys.argv[6])
rows = {"0": [], "0.002": []}
for rep in range(reps):
    for window in ((0.0, 0.002) if rep % 2 == 0 else (0.002, 0.0)):
        db = build_database(*shape); queries = query_mix(db, 48)
        service = DatabaseService(db, batch_window=window)
        try: row = run(service, queries, readers, ops, writes, gap)
        finally: service.close()
        rows["0" if not window else "0.002"].append(row); print(window, row, flush=True)
print("facts", len(db), "shape", shape, "readers", readers, "ops", ops, "writes", writes, "gap", gap)
for w in rows:
    print(w, {k: statistics.median(r[k] for r in rows[w]) for k in rows[w][0]})
json.dump(rows, open(f"/root/scratch/window/paced2_{sys.argv[1]}_{readers}_{gap}.json", "w"), indent=1)
