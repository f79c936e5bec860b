import json, sys, statistics
recs = [json.loads(l) for l in open(sys.argv[1])]
pairs = {}
for r in recs: pairs.setdefault(r["pair"], {})[r["side"]] = r
names = list(recs[0]["metrics"])
def q(v):
    v = sorted(v); n = len(v)
    return statistics.median(v), v[n // 4], v[(3 * n) // 4 if n > 1 else 0]
lower = lambda n: n != "requests_per_s"
print("failed:", sum(r["failed"] or 0 for r in recs), "incorrect:", sum(1 for r in recs if not r["correct"]))
for name in names:
    P = [p["parent"]["metrics"][name] for p in pairs.values() if len(p) == 2]
    C = [p["change"]["metrics"][name] for p in pairs.values() if len(p) == 2]
    deltas = [100 * (c - p) / p for p, c in zip(P, C)]
    wins = sum(1 for p, c in zip(P, C) if (c < p if lower(name) else c > p))
    mp, q1, q3 = q(P); mc, c1, c3 = q(C)
    print(f"{name:18s} parent {mp:9.1f} [{q1:9.1f}..{q3:9.1f}]  change {mc:9.1f} [{c1:9.1f}..{c3:9.1f}]  "
          f"median pair Δ {statistics.median(deltas):+6.1f}%  wins {wins}/{len(P)}  Δs " + " ".join(f"{d:+.0f}" for d in deltas))
