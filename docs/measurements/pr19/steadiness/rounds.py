"""rounds.py TREE WORKLOAD SEED — run the macro benchmark once from TREE and
dump per-round composition (seconds, per-kind sums) as JSON lines."""
import json, sys, statistics
tree, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, f"{tree}/benchmarks/macro")
sys.argv = ["run.py"]
import run, wire
captured = []
orig = wire.Window
class W(orig):
    def __init__(self):
        super().__init__(); captured.append(self)
wire.Window = W
r = run.run_once(workload, seed, 10, False)
w = captured[0]
rows = []
for i, (secs, n) in enumerate(zip(w.round_seconds, w.round_requests)):
    row = {"round": i, "ms": round(secs * 1e3, 2), "rps": round(n / secs, 1)}
    for kind, rounds in w.by_kind.items():
        if kind.startswith("session."): continue
        vals = rounds[i]
        row[kind] = [round(v * 1e3, 2) for v in vals] if kind in ("session", "checkpoint") else round(sum(vals) * 1e3, 2)
    rows.append(row)
    print(json.dumps(row))
print(json.dumps({"failed": r.failed, "metrics": {k: round(v, 3) for k, v in r.metrics.items()}, "host": r.host}))
