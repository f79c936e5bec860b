"""summarize.py RUNS.jsonl — the markdown tables of README.md from the
runs ``pairs.py`` recorded: per workload one row per end-to-end
metric (medians with quartiles, the change's median against the
parent's, each side's inter-quartile spread in percent of its median,
the pairs the change won, every pair's difference in percent)."""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BOUNDS = {row["name"]: (row["bound"], row["better"]) for row in json.loads(
    (Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text()
)["end_to_end"]}

runs = defaultdict(dict)
for line in Path(sys.argv[1]).read_text().splitlines():
    run = json.loads(line)
    runs[run["workload"]].setdefault(run["seed"], {})[run["side"]] = \
        run["result"]

for workload, by_seed in runs.items():
    pairs = [by_seed[seed] for seed in sorted(by_seed)]
    before = [pair["parent"] for pair in pairs]
    after = [pair["change"] for pair in pairs]
    print(f"\n## {workload}, {len(pairs)} alternating pairs, seeds"
          f" {min(by_seed)}–{max(by_seed)}\n")
    print(f"failed {sum(r['failed'] for r in before)} /"
          f" {sum(r['failed'] for r in after)} of"
          f" {sum(r['attempted'] for r in before)} /"
          f" {sum(r['attempted'] for r in after)} attempted; every answer"
          f" correct: {all(r['correct'] for r in before + after)}\n")
    print("| metric | parent median [q1..q3] | change median [q1..q3] |"
          " median shift | bound | IQR, % of median (parent / change) |"
          " change better in | per pair, % |")
    print("|---|---|---|---|---|---|---|---|")
    for name, (bound, better) in BOUNDS.items():
        a = [r["metrics"][name]["value"] for r in before]
        b = [r["metrics"][name]["value"] for r in after]
        wins = sum((y < x) if better == "lower" else (y > x)
                   for x, y in zip(a, b))
        qa, qb = (statistics.quantiles(v, n=4) for v in (a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        each = " ".join(f"{100 * (y / x - 1):+.0f}" for x, y in zip(a, b))
        print(f"| `{name}` | {ma:.3f} [{qa[0]:.3f}..{qa[2]:.3f}] |"
              f" {mb:.3f} [{qb[0]:.3f}..{qb[2]:.3f}] |"
              f" {100 * (mb / ma - 1):+.1f} % |"
              f" {100 * bound:.0f} % ({better}) |"
              f" {100 * (qa[2] - qa[0]) / ma:.0f} /"
              f" {100 * (qb[2] - qb[0]) / mb:.0f} |"
              f" {wins} of {len(pairs)} | {each} |")
