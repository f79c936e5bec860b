"""Stratification's traffic, and the closure as one loop, on two trees.

    taskset -c 1 python3 one_loop.py PARENT CHANGE [RUNS]

PARENT is a tree that still has ``repro.rules.dispatch.stratify``;
CHANGE is one that runs the closure as one ``run_rounds`` over the
whole rule set.

Part 1 (``strata``, PARENT only): the stratum count of every rule set
the repository runs —

* ``standard``: the standard rules.  The macro world saves
  ``Database().rules.snapshot_state()`` (every standard rule enabled),
  and every row of ``BENCH_closure.json`` runs them;
* ``standard+married-to``: plus the user rule
  ``(a, MARRIED-TO, b) => (b, MARRIED-TO, a)``;
* ``F7 -<rule>``: each single-rule ablation F7 runs, and ``F7 none``,
  its empty rule set;

and, for contrast, ``no-syn``: the standard rules without both
``syn-*`` rules, a shape only tests build.

Part 2 (``closure``): ``dispatched_closure`` on F2's
inference-heavy-100 and -400, with the standard rules and with
``no-syn``.  The host this was measured on moves between two speeds
about 25 % apart every few seconds, so the driver starts one worker
per tree, both on the CPU the driver is pinned to, and asks them in
turn — the side that goes first swapped every run — for one closure
of a shape: RUNS alternating runs (default 10) per shape.  A worker
imports its tree's ``src``, builds the four shapes with its tree's own
``benchmarks/bench_f2_closure.py``, compiles each rule set once and
closes each shape twice to warm up; both run under one
``PYTHONHASHSEED``.  Per shape and tree: the median,
min and max of the runs in ms, the rounds, the firing total, whether
rounds and firings equal ``semi_naive_closure``'s, the change /
parent ratio of medians, and the median of the per-run change / parent
ratios (each run's two closures are adjacent in time, so that ratio
drifts least with the host).  Prints one JSON object.
"""

import json
import os
import statistics
import subprocess
import sys
import time

DATASETS = ("inference-heavy-100", "inference-heavy-400")
RULE_SETS = ("standard", "no-syn")


def _import_tree(tree: str) -> None:
    sys.path[:0] = [os.path.join(tree, "src"), tree]


def _rule_set(name: str):
    from repro.rules.builtin import STANDARD_RULES
    if name == "standard":
        return list(STANDARD_RULES)
    assert name == "no-syn"
    return [rule for rule in STANDARD_RULES
            if not rule.name.startswith("syn-")]


def strata(tree: str) -> dict:
    """Stratum counts at a tree that still stratifies."""
    _import_tree(tree)
    from repro.db import Database
    from repro.rules.builtin import STANDARD_RULES
    from repro.rules.dispatch import stratify

    db = Database()
    db.define_rule("married-to", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
    counts = {
        "standard": len(stratify(STANDARD_RULES)),
        "standard+married-to": len(stratify(list(db.rules))),
    }
    for rule in STANDARD_RULES:
        counts[f"F7 -{rule.name}"] = len(stratify(
            [other for other in STANDARD_RULES if other is not rule]))
    counts["F7 none"] = len(stratify([]))
    counts["no-syn"] = len(stratify(_rule_set("no-syn")))
    return counts


def worker(tree: str) -> None:
    """Answer ``SHAPE`` lines with one timed closure of that shape."""
    _import_tree(tree)
    from benchmarks.bench_f2_closure import (
        _context,
        _inference_heavy_workload,
    )
    from repro.rules.dispatch import compile_ruleset, dispatched_closure
    from repro.rules.engine import semi_naive_closure

    shapes = {}
    for dataset in DATASETS:
        facts = _inference_heavy_workload(int(dataset.rsplit("-", 1)[1]))
        context = _context(facts)
        for rule_set in RULE_SETS:
            rules = _rule_set(rule_set)
            compiled = compile_ruleset(rules)
            result = dispatched_closure(facts, rules, context,
                                        compiled=compiled)
            dispatched_closure(facts, rules, context, compiled=compiled)
            reference = semi_naive_closure(facts, rules, context)
            what = {"rounds": result.iterations,
                    "firings": sum(result.rule_firings.values()),
                    "closure": len(result.store),
                    "as_reference": (
                        result.iterations == reference.iterations
                        and result.rule_firings == reference.rule_firings)}
            shapes[f"{dataset} {rule_set}"] = (facts, rules, context,
                                               compiled, what)
    print(json.dumps({shape: entry[4] for shape, entry in shapes.items()}),
          flush=True)
    for line in sys.stdin:
        facts, rules, context, compiled, _ = shapes[line.strip()]
        started = time.perf_counter()
        dispatched_closure(facts, rules, context, compiled=compiled)
        print(time.perf_counter() - started, flush=True)


def main(parent: str, change: str, runs: int) -> None:
    here = os.path.abspath(__file__)
    trees = {"parent": os.path.abspath(parent),
             "change": os.path.abspath(change)}
    report = {"strata": json.loads(subprocess.run(
        [sys.executable, here, "--strata", trees["parent"]],
        check=True, capture_output=True, text=True).stdout)}
    # One hash seed for both: set iteration orders, and so the work a
    # closure does, are then the same on both sides.
    env = dict(os.environ, PYTHONHASHSEED="0")
    workers = {side: subprocess.Popen(
        [sys.executable, here, "--worker", tree], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, env=env)
        for side, tree in trees.items()}
    what = {side: json.loads(w.stdout.readline())
            for side, w in workers.items()}
    closure = {}
    for dataset in DATASETS:
        for rule_set in RULE_SETS:
            shape = f"{dataset} {rule_set}"
            samples = {side: [] for side in trees}
            for run in range(runs):
                sides = list(trees) if run % 2 == 0 else list(trees)[::-1]
                for side in sides:
                    workers[side].stdin.write(shape + "\n")
                    workers[side].stdin.flush()
                    samples[side].append(
                        float(workers[side].stdout.readline()) * 1e3)
            row = {side: {"median_ms": round(statistics.median(ms), 2),
                          "min_ms": round(min(ms), 2),
                          "max_ms": round(max(ms), 2),
                          **what[side][shape]}
                   for side, ms in samples.items()}
            row["change/parent"] = round(
                row["change"]["median_ms"] / row["parent"]["median_ms"], 3)
            row["pair_ratio_median"] = round(statistics.median(
                c / p for c, p in zip(samples["change"],
                                      samples["parent"])), 3)
            closure[shape] = row
    for w in workers.values():
        w.stdin.close()
        w.wait()
    report["closure"] = closure
    report["runs"] = runs
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--strata":
        print(json.dumps(strata(sys.argv[2])))
    elif sys.argv[1] == "--worker":
        worker(sys.argv[2])
    else:
        main(sys.argv[1], sys.argv[2],
             int(sys.argv[3]) if len(sys.argv) > 3 else 10)
