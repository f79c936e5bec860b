"""pairs.py PARENT CHANGE WORKLOAD TRACE SEED… — alternating pairs of
``benchmarks/macro/run.py --workload WORKLOAD --seconds 10 --trace
TRACE``, one pair per seed, the side that runs first swapped every
pair; then, per metric of the last lines (the object the driver
reads): medians, quartiles, the change's median against the parent's,
pairs the change won.  ``TRACE`` 0 reports the end-to-end metrics with
their ``BENCHMARK.json`` bounds, 1 the two in-process write layers.

PARENT and CHANGE are clean checkouts (``git clone`` / ``git
checkout-index``) with byte-identical ``benchmarks/macro/``.  Run it
alone: a pytest beside it moves the p50s by 20 % on a 2-core host.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

parent, change, workload, trace, *seeds = sys.argv[1:]
LAYERS = ("dispatch.remove_p50_us", "dispatch.incremental_add_p50_us")
catalog = json.loads((Path(change) / "BENCHMARK.json").read_text())
BOUNDS = {row["name"]: (row["bound"], row["better"])
          for row in catalog["end_to_end"]}


def run(tree: str, seed: str) -> dict:
    out = subprocess.run(
        [sys.executable, "benchmarks/macro/run.py", "--workload", workload,
         "--seed", seed, "--seconds", "10", "--trace", trace],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


pairs = []
for index, seed in enumerate(seeds):
    order = (parent, change) if index % 2 == 0 else (change, parent)
    results = {tree: run(tree, seed) for tree in order}
    pairs.append((results[parent], results[change]))
    print(f"pair {index} seed {seed} first"
          f" {'parent' if order[0] == parent else 'change'}: done",
          file=sys.stderr)

before, after = zip(*pairs)
print(f"{workload} --trace {trace}: {len(pairs)} pairs, seeds {seeds};"
      f" failed {sum(r['failed'] for r in before)} /"
      f" {sum(r['failed'] for r in after)} of"
      f" {sum(r['attempted'] for r in before)} /"
      f" {sum(r['attempted'] for r in after)} attempted; all correct:"
      f" {all(r['correct'] for r in before + after)}")
names = BOUNDS if trace == "0" else LAYERS
for name in names:
    a = [r["metrics"][name]["value"] for r in before]
    b = [r["metrics"][name]["value"] for r in after]
    bound, better = BOUNDS.get(name, (None, "lower"))
    wins = sum((y < x) if better == "lower" else (y > x)
               for x, y in zip(a, b))
    quartiles = [statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                 for v in (a, b)]
    shift = 100 * (statistics.median(b) / statistics.median(a) - 1)
    print(f"  {name:32s} parent {statistics.median(a):10.3f}"
          f" [{quartiles[0][0]:.3f}..{quartiles[0][2]:.3f}]  change"
          f" {statistics.median(b):10.3f}"
          f" [{quartiles[1][0]:.3f}..{quartiles[1][2]:.3f}]"
          f"  median {shift:+6.1f}%"
          + (f" (bound {100 * bound:.0f}%, {better} is better)"
             if bound is not None else "")
          + f"  change better in {wins} of {len(pairs)}")
