"""summarize.py OUTDIR WORKLOAD — medians, quartiles, pair deltas,
pairs won, whether the two sides' runs separate completely, and
whether the counts that must repeat exactly do (untraced runs).
"""
import glob
import json
import re
import statistics
import sys

out, wl = sys.argv[1], sys.argv[2]


def load(side):
    rows = {}
    for path in sorted(glob.glob(f"{out}/{wl}_{side}_*_s*.json")):
        i = int(re.search(rf"{side}_(\d+)_s", path).group(1))
        lines = open(path).read().strip().splitlines()
        if not lines:       # a run still in progress
            continue
        doc = json.loads(lines[-1])
        exact = sorted(line.strip() for line in lines
                       if line.startswith("  exact "))
        rows[i] = (doc["metrics"], doc["failed"], doc["attempted"],
                   doc["correct"], exact)
    return rows


p, c = load("parent"), load("change")
idx = sorted(set(p) & set(c))
print(f"{wl}: {len(idx)} pairs; failed parent {sum(p[i][1] for i in idx)}"
      f" change {sum(c[i][1] for i in idx)} of"
      f" {sum(p[i][2] for i in idx)} / {sum(c[i][2] for i in idx)} attempted;"
      f" all correct: {all(p[i][3] and c[i][3] for i in idx)};"
      f" exact counts identical pair by pair:"
      f" {all(p[i][4] == c[i][4] for i in idx)}")
for m in p[idx[0]][0]:
    pv = [p[i][0][m]["value"] for i in idx]
    cv = [c[i][0][m]["value"] for i in idx]
    lower = m != "requests_per_s"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(pv, cv))
    apart = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))

    def q(v):
        return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    pq, cq = q(pv), q(cv)
    deltas = [100 * (b - a) / a for a, b in zip(pv, cv)]
    print(f"  {m:16s} parent {statistics.median(pv):9.3f}"
          f" [{pq[0]:.3f}..{pq[2]:.3f}]  change {statistics.median(cv):9.3f}"
          f" [{cq[0]:.3f}..{cq[2]:.3f}]  median pair delta"
          f" {statistics.median(deltas):+6.1f}%  wins {wins}/{len(idx)}"
          f"{'  every change run better than every parent run' if apart else ''}"
          f"  per pair: " + " ".join(f"{d:+.0f}" for d in deltas))
