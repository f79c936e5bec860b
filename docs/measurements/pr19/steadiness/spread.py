"""spread.py OUTDIR WORKLOAD — each side's inter-quartile spread over the
runs in OUTDIR beside the driver's bound (25 % of the parent's median;
5 % for peak_rss_mb), the way BENCHMARK_REFUSED.md states it."""
import glob
import json
import statistics
import sys

out, wl = sys.argv[1], sys.argv[2]


def load(side):
    runs = [json.loads(open(p).read().strip().splitlines()[-1])["metrics"]
            for p in sorted(glob.glob(f"{out}/{wl}_{side}_*_s*.json"))]
    return {m: [r[m]["value"] for r in runs] for m in runs[0]}


parent, change = load("parent"), load("change")
for m in parent:
    share = 0.05 if m == "peak_rss_mb" else 0.25
    bound = share * statistics.median(parent[m])

    def iqr(values):
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return q3 - q1
    p, c = iqr(parent[m]), iqr(change[m])
    print(f"{wl:15s} {m:16s} bound {bound:9.3f}  parent IQR {p:9.3f}"
          f" ({100 * p / statistics.median(parent[m]):4.1f} % of its median)"
          f"  change IQR {c:9.3f}"
          f" ({100 * c / statistics.median(change[m]):4.1f} % of its median)"
          f"  {'PAST' if c > bound else 'inside'}")
