"""F11 mixed + F12 lag at batch_window 0 vs 0.002, alternating."""
import json, sys, statistics
sys.path.insert(0, "/root/repo/benchmarks")
from bench_f11_serving import build_database, query_mix, run_mixed
from bench_f12_replication import run_lag
from repro.serve import DatabaseService, ReplicaPool

reps = int(sys.argv[1]) if len(sys.argv) > 1 else 6
out = {"mixed": {"0": [], "0.002": []}, "lag": {"0": [], "0.002": []}}
for rep in range(reps):
    order = (0.0, 0.002) if rep % 2 == 0 else (0.002, 0.0)
    for window in order:
        db = build_database(4, 3, 3)
        queries = query_mix(db, 48)
        service = DatabaseService(db, batch_window=window)
        try:
            row = run_mixed(service, queries, 8, 300, 100)
        finally:
            service.close()
        out["mixed"][str(window) if window else "0"].append(row)
        print("mixed", window, row["ops_per_second"], row["p50_us"], row["p99_us"], row["snapshot_publishes"], flush=True)
for rep in range(reps):
    order = (0.0, 0.002) if rep % 2 == 0 else (0.002, 0.0)
    for window in order:
        db = build_database(4, 3, 3)
        service = DatabaseService(db, batch_window=window)
        pool = ReplicaPool(service, workers=2)
        try:
            row = run_lag(service, pool, 100)
        finally:
            pool.close(); service.close()
        out["lag"][str(window) if window else "0"].append(row)
        print("lag", window, row["lag_p50_us"], row["lag_p99_us"], row["lag_max_us"], row["deltas"], flush=True)
json.dump(out, open("/root/scratch/window/f11_f12_window.json", "w"), indent=1)
for kind, keys in (("mixed", ("ops_per_second", "p50_us", "p95_us", "p99_us", "snapshot_publishes", "wall_seconds")),
                   ("lag", ("lag_p50_us", "lag_p99_us", "lag_max_us", "deltas"))):
    for w in ("0", "0.002"):
        print(kind, w, {k: statistics.median(r[k] for r in out[kind][w]) for k in keys})
