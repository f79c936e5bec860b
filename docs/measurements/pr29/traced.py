"""traced.py PARENT CHANGE RUNS.jsonl SEED WORKLOAD… — one traced run
(``benchmarks/macro/run.py --seed SEED --seconds 10 --trace 1``) a side
per workload, the side that runs first swapped every workload.  Every
run's last stdout line is appended to RUNS.jsonl with its side; the
per-layer rows (``setup.*``, ``dispatch.*``, …) are in its
``metrics``.  Run it alone, like ``tools/bench_pairs.py``; ``tools/bench_pairs.py
--summarize RUNS.jsonl`` reads the log back.
"""
import json
import subprocess
import sys

parent, change, log, seed, *workloads = sys.argv[1:]

for index, workload in enumerate(workloads):
    order = (parent, change) if index % 2 == 0 else (change, parent)
    for position, tree in enumerate(order):
        out = subprocess.run(
            [sys.executable, "benchmarks/macro/run.py", "--workload",
             workload, "--seed", seed, "--seconds", "10", "--trace", "1"],
            cwd=tree, capture_output=True, text=True, check=True).stdout
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"side": "parent" if tree == parent else "change",
                 "workload": workload, "seed": int(seed),
                 "ran": "first" if position == 0 else "second",
                 "result": json.loads(out.strip().splitlines()[-1])})
                + "\n")
        print(f"{workload} {'parent' if tree == parent else 'change'}:"
              " done", file=sys.stderr)
