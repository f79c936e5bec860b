"""pairs.py PARENT CHANGE WORKLOAD RUNS.jsonl SEED… — alternating pairs
of ``benchmarks/macro/run.py --workload WORKLOAD --seconds 10 --trace
0``, one pair per seed, the side that runs first swapped every pair.
Every run's last stdout line (the object the driver reads) is appended
to RUNS.jsonl with its side, seed and position in the pair;
``summarize.py RUNS.jsonl`` prints the tables.

PARENT and CHANGE are clean checkouts (``git clone`` / ``git archive``)
with byte-identical ``benchmarks/macro/``.  Run it alone: a pytest
beside it moves the p50s by 20 % on a 2-core host.
"""
import json
import subprocess
import sys

parent, change, workload, log, *seeds = sys.argv[1:]


def run(tree: str, seed: str, position: int) -> None:
    out = subprocess.run(
        [sys.executable, "benchmarks/macro/run.py", "--workload", workload,
         "--seed", seed, "--seconds", "10", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"side": "parent" if tree == parent else "change",
             "workload": workload, "seed": int(seed),
             "ran": "first" if position == 0 else "second",
             "result": result}) + "\n")


for index, seed in enumerate(seeds):
    order = (parent, change) if index % 2 == 0 else (change, parent)
    for position, tree in enumerate(order):
        run(tree, seed, position)
    print(f"pair {index} seed {seed} first"
          f" {'parent' if order[0] == parent else 'change'}: done",
          file=sys.stderr)
