"""``--repeat-check``: does the benchmark agree with itself?

Two sets of N untraced runs per workload, the second set after the
whole first one (minutes apart, like a parent and a change measured one
after the other), run ``i`` of both sets on seed ``seed + i``.  For
every workload × end-to-end metric it prints both set medians, their
gap in the direction that would count as a regression, each set's
spread — the distance between the quartiles as a share of the median,
which is what the acceptance check looks at — and the metric's bound.

It fails when a gap exceeds half the bound, and when a count that must
repeat exactly differs between the two runs of one seed.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = re.compile(r"^\s+exact (\S+) = (\S+)$", re.MULTILINE)
HOST = re.compile(r"loadavg=\[([0-9.]+),.* steal_ticks=(\d+) ")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with"
                           f" {done.returncode}:\n{done.stdout[-2000:]}"
                           f"\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    loadavg, steal = HOST.search(done.stdout).groups()
    return {"metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()},
            "exact": dict(EXACT.findall(done.stdout)),
            "unsteady": "unsteady=yes" in done.stdout,
            "loadavg": float(loadavg), "steal": int(steal)}


def spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(catalog: dict, seconds: float, runs: int, workloads: List[str],
         first_seed: int = 1) -> int:
    sets: List[Dict[str, List[dict]]] = []
    for label in "AB":
        results: Dict[str, List[dict]] = {}
        for workload in workloads:
            results[workload] = []
            for i in range(runs):
                results[workload].append(
                    one_run(workload, first_seed + i, seconds))
                print(f"set {label} {workload} seed {first_seed + i}:"
                      " done", file=sys.stderr, flush=True)
        sets.append(results)

    ok = True
    print(f"noise floor: 2 sets x {runs} runs, --seconds {seconds:g},"
          f" seeds {first_seed}..{first_seed + runs - 1}")
    print("| workload | metric | median A | median B | gap | spread A |"
          " spread B | bound | |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for workload in workloads:
        a_runs, b_runs = sets[0][workload], sets[1][workload]
        for spec in catalog["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if spec["better"] == "higher":
                worse = -worse
            verdict = "ok"
            if abs(worse) > bound / 2:
                verdict, ok = "GAP", False
            print(f"| {workload} | {name} | {med_a:.4f} | {med_b:.4f} |"
                  f" {100 * worse:+.2f}% | {100 * spread(a):.2f}% |"
                  f" {100 * spread(b):.2f}% | {100 * bound:.0f}% |"
                  f" {verdict} |")
        differing = [first_seed + i for i, (first, second)
                     in enumerate(zip(a_runs, b_runs))
                     if first["exact"] != second["exact"]]
        if differing:
            ok = False
        both = a_runs + b_runs
        print(f"{workload}: exact counts"
              f" {'DIFFER on seeds ' + str(differing) if differing else 'identical in both sets'};"
              f" {sum(r['unsteady'] for r in both)} of {len(both)} runs"
              f" flagged unsteady; 1-min loadavg at start up to"
              f" {max(r['loadavg'] for r in both):.2f};"
              f" {sum(r['steal'] for r in both)} steal ticks\n")
    print("repeat-check", "passed" if ok else "FAILED")
    return 0 if ok else 1
