"""W sync writer threads (closed loop, like TCP connections) + R readers; window 0 vs 0.002."""
import json, sys, statistics, threading, time
sys.path.insert(0, "/root/repo/benchmarks")
from bench_f11_serving import build_database, query_mix, percentile
from repro.serve import DatabaseService

def run(service, queries, readers, ops, writers, writes):
    lat = [[] for _ in range(readers)]; acks = [[] for _ in range(writers)]
    barrier = threading.Barrier(readers + writers + 1)
    def reader(slot):
        barrier.wait(); mine = lat[slot]
        for i in range(ops):
            text = queries[(slot * ops + i) % len(queries)]
            t = time.perf_counter(); service.query(text); mine.append(time.perf_counter() - t)
    def writer(slot):
        barrier.wait(); mine = acks[slot]
        for i in range(writes):
            t = time.perf_counter(); service.add(f"NEW{slot}-{i}", "∈", "C0"); mine.append(time.perf_counter() - t)
    before = service.stats()
    rs = [threading.Thread(target=reader, args=(s,)) for s in range(readers)]
    ws = [threading.Thread(target=writer, args=(s,)) for s in range(writers)]
    for t in rs + ws: t.start()
    barrier.wait(); start = time.perf_counter()
    for t in rs: t.join()
    rwall = time.perf_counter() - start
    for t in ws: t.join()
    wwall = time.perf_counter() - start
    flat = [x for s in lat for x in s]; aflat = [x for s in acks for x in s]
    after = service.stats()
    return {"reads_per_s": round(len(flat) / rwall) if flat else 0, "p99_us": round(percentile(flat, .99) * 1e6, 1),
            "writes_per_s": round(len(aflat) / wwall), "ack_p50_ms": round(percentile(aflat, .5) * 1e3, 2),
            "ack_p99_ms": round(percentile(aflat, .99) * 1e3, 2),
            "publishes": after["snapshot_publishes"] - before["snapshot_publishes"]}

shape = tuple(int(x) for x in sys.argv[1].split(","))
readers, ops, writers, writes, reps = (int(x) for x in sys.argv[2:7])
rows = {"0": [], "0.002": []}
for rep in range(reps):
    for window in ((0.0, 0.002) if rep % 2 == 0 else (0.002, 0.0)):
        db = build_database(*shape); queries = query_mix(db, 48)
        service = DatabaseService(db, batch_window=window)
        try: row = run(service, queries, readers, ops, writers, writes)
        finally: service.close()
        rows["0" if not window else "0.002"].append(row); print(window, row, flush=True)
print("shape", shape, "readers", readers, "ops", ops, "writers", writers, "writes", writes)
for w in rows:
    print(w, {k: statistics.median(r[k] for r in rows[w]) for k in rows[w][0]})
json.dump(rows, open(f"/root/scratch/window/multisync_{sys.argv[1]}_{readers}_{writers}.json", "w"), indent=1)
