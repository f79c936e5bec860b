import json, sys, glob, statistics, re
out, wl = sys.argv[1], sys.argv[2]
def load(side):
    rows = {}
    for path in sorted(glob.glob(f"{out}/{wl}_{side}_*_s*.json")):
        i = int(re.search(rf"{side}_(\d+)_s", path).group(1))
        text = open(path).read().strip().splitlines()
        if not text: continue
        doc = json.loads(text[-1])
        rows[i] = (doc["metrics"], doc["failed"], doc["attempted"])
    return rows
p, c = load("parent"), load("change")
idx = sorted(set(p) & set(c))
print(f"{wl}: {len(idx)} pairs; failed parent {sum(p[i][1] for i in idx)} change {sum(c[i][1] for i in idx)}")
lower_better = lambda m: m != "requests_per_s"
for m in p[idx[0]][0]:
    pv = [p[i][0][m]["value"] for i in idx]; cv = [c[i][0][m]["value"] for i in idx]
    wins = sum((cv[k] < pv[k]) if lower_better(m) else (cv[k] > pv[k]) for k in range(len(idx)))
    q = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]]*3
    pq, cq = q(pv), q(cv)
    ratio = statistics.median(cv) / statistics.median(pv)
    print(f"  {m:18s} parent {statistics.median(pv):10.3f} [{pq[0]:.3f}..{pq[2]:.3f}]  change {statistics.median(cv):10.3f} [{cq[0]:.3f}..{cq[2]:.3f}]  ratio {ratio:.3f} wins {wins}/{len(idx)}")
