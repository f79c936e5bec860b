"""summarize.py runs.jsonl — per set: medians, quartiles, the change's
median against the parent's in percent (and the bound it must stay
inside), per-pair deltas, pairs won, and whether failed operations,
correctness and the exact counts agree pair by pair.
"""
import json
import statistics
import sys
from pathlib import Path

BOUNDS = {row["name"]: (row["bound"], row["better"]) for row in json.loads(
    (Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text()
)["end_to_end"]}

sets = {}
for line in open(sys.argv[1]):
    run = json.loads(line)
    sets.setdefault((run["set"], run["workload"]), {}).setdefault(
        run["pair"], {})[run["side"]] = run


def quartiles(values):
    return (statistics.quantiles(values, n=4) if len(values) > 1
            else [values[0]] * 3)


for (name, workload), pairs in sets.items():
    pairs = [pair for _i, pair in sorted(pairs.items()) if len(pair) == 2]
    parent = [pair["parent"] for pair in pairs]
    change = [pair["change"] for pair in pairs]
    print(f"{name} ({workload}): {len(pairs)} pairs, seeds"
          f" {[run['seed'] for run in parent]}; failed"
          f" {sum(r['result']['failed'] for r in parent)} /"
          f" {sum(r['result']['failed'] for r in change)} of"
          f" {sum(r['result']['attempted'] for r in parent)} /"
          f" {sum(r['result']['attempted'] for r in change)} attempted;"
          f" all correct:"
          f" {all(r['result']['correct'] for r in parent + change)};"
          f" exact counts identical pair by pair:"
          f" {all(p['exact'] == c['exact'] for p, c in zip(parent, change))}")
    for metric, (bound, better) in BOUNDS.items():
        before = [r["result"]["metrics"][metric]["value"] for r in parent]
        after = [r["result"]["metrics"][metric]["value"] for r in change]
        lower = better == "lower"
        wins = sum((b < a) if lower else (b > a)
                   for a, b in zip(before, after))
        deltas = [100 * (b - a) / a for a, b in zip(before, after)]
        shift = 100 * (statistics.median(after) / statistics.median(before)
                       - 1)
        worse = shift if lower else -shift
        pq, cq = quartiles(before), quartiles(after)
        spread = 100 * max(pq[2] - pq[0], cq[2] - cq[0]) \
            / statistics.median(before)
        verdict = ("WORSE THAN BOUND" if worse > 100 * bound else
                   "spread exceeds bound: unresolved"
                   if spread > 100 * bound else "inside bound")
        print(f"  {metric:16s} parent {statistics.median(before):9.3f}"
              f" [{pq[0]:.3f}..{pq[2]:.3f}]  change"
              f" {statistics.median(after):9.3f} [{cq[0]:.3f}..{cq[2]:.3f}]"
              f"  median {shift:+6.1f}% (bound {100 * bound:.0f}%,"
              f" {verdict})  wins {wins}/{len(pairs)}  per pair: "
              + " ".join(f"{d:+.0f}" for d in deltas))
