"""imports.py PARENT CHANGE OUT.jsonl [ALTERNATIONS] — what a server
child pays before it reads a byte of data, on two trees.

Each probe is a fresh interpreter timed from spawn (``perf_counter``
here, just before ``Popen``) to the ``perf_counter`` it prints once its
imports are done — the clock is CLOCK_MONOTONIC, so the two readings
subtract; this is how ``benchmarks/macro/wire.py`` times
``setup.spawn_s``.  The probes:

    bare      nothing imported: interpreter start-up + ``site``
    networkx  ``import networkx`` alone
    child     the macro server child's import list: ``inproc``, then
              ``DatabaseService``, ``ServiceServer``, ``open_database``

each in two modes: ``nocache`` — the trees as checked out, no
``__pycache__`` and ``PYTHONDONTWRITEBYTECODE=1``, so every ``repro``
module compiles (the standard library and networkx are installed with
their bytecode); ``cache`` — a copy of each tree's ``src/`` and
``benchmarks/macro/`` byte-compiled with ``compileall`` first.  The
trees alternate, the side that runs first swapped every round; the
whole script is pinned to one CPU, like the benchmark.  The ``child``
probe also records its module counts (all, ``repro.*``, the source
lines of those) and whether networkx / multiprocessing loaded.

Last, ``python -X importtime`` of the child list, ALTERNATIONS runs a
tree in turn (``nocache``), self time summed per package and the median
taken: ``repro.<subpackage>``, ``networkx``, ``multiprocessing``,
``inproc`` (the benchmark's own module), everything else (the rest of
the standard library, and what ``site`` imports at start-up).

One JSON object per line to OUT.jsonl.  Run it alone.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

parent, change, log = sys.argv[1:4]
alternations = int(sys.argv[4]) if len(sys.argv) > 4 else 8
SCRATCH = Path(tempfile.mkdtemp(prefix="imports-"))

CHILD = """
import sys, time, json
sys.path.insert(0, {src!r})
sys.path.insert(0, {macro!r})
import inproc
from repro.serve import DatabaseService
from repro.serve.net import ServiceServer
from repro.storage.session import open_database
done = time.perf_counter()
repro = [m for name, m in sys.modules.items()
         if name == "repro" or name.startswith("repro.")]
lines = sum(sum(1 for _ in open(m.__file__, encoding="utf-8"))
            for m in repro if getattr(m, "__file__", None))
print(json.dumps({{"done": done, "modules": len(sys.modules),
                  "repro_modules": len(repro), "repro_lines": lines,
                  "networkx": "networkx" in sys.modules,
                  "multiprocessing": "multiprocessing" in sys.modules}}))
"""
PROBES = {
    "bare": "import time; print(time.perf_counter())",
    "networkx": "import time, networkx; print(time.perf_counter())",
}


def roots(tree: str, mode: str):
    """(src, macro) for a tree in a mode; ``cache`` copies compile once."""
    if mode == "nocache":
        return (str(Path(tree) / "src"),
                str(Path(tree) / "benchmarks" / "macro"))
    copy = SCRATCH / ("parent" if tree == parent else "change")
    if not copy.exists():
        shutil.copytree(Path(tree) / "src", copy / "src")
        shutil.copytree(Path(tree) / "benchmarks" / "macro", copy / "macro")
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(copy)], check=True,
                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE=""))
    return str(copy / "src"), str(copy / "macro")


def env(mode: str) -> dict:
    out = dict(os.environ, PYTHONHASHSEED="0")
    out.pop("PYTHONPATH", None)
    if mode == "nocache":
        out["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        out.pop("PYTHONDONTWRITEBYTECODE", None)
    return out


def probe(tree: str, mode: str, name: str) -> dict:
    src, macro = roots(tree, mode)
    script = (CHILD.format(src=src, macro=macro) if name == "child"
              else PROBES[name])
    spawned = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", script], env=env(mode),
                         capture_output=True, text=True, check=True).stdout
    reply = json.loads(out.strip().splitlines()[-1])
    if not isinstance(reply, dict):
        reply = {"done": reply}
    reply["spawn_to_imports_s"] = reply.pop("done") - spawned
    return reply


def group(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro":
        return ".".join(parts[:2])
    if parts[0] in ("networkx", "multiprocessing", "inproc"):
        return parts[0]
    return "everything else"


def importtime(tree: str) -> dict:
    src, macro = roots(tree, "nocache")
    script = ("import sys; sys.path.insert(0, %r); sys.path.insert(0, %r)\n"
              "import inproc\nfrom repro.serve import DatabaseService\n"
              "from repro.serve.net import ServiceServer\n"
              "from repro.storage.session import open_database\n"
              % (src, macro))
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", script],
                         env=env("nocache"), capture_output=True, text=True,
                         check=True).stderr
    totals = defaultdict(int)
    for line in err.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        totals[group(name.strip())] += int(self_us)
    return dict(totals)


def write(record: dict) -> None:
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})
sides = {parent: "parent", change: "change"}
for mode in ("nocache", "cache"):
    for name in ("bare", "networkx", "child"):
        for tree in (parent, change):      # untimed warm-up
            probe(tree, mode, name)
        for index in range(alternations):
            order = (parent, change) if index % 2 == 0 else (change, parent)
            for position, tree in enumerate(order):
                write({"kind": "spawn", "mode": mode, "probe": name,
                       "side": sides[tree], "round": index,
                       "ran": "first" if position == 0 else "second",
                       **probe(tree, mode, name)})
        print(f"{mode} {name}: done", file=sys.stderr)

runs = {side: [] for side in sides.values()}
for index in range(alternations):
    order = (parent, change) if index % 2 == 0 else (change, parent)
    for tree in order:
        runs[sides[tree]].append(importtime(tree))
for side, totals in runs.items():
    groups = sorted({name for run in totals for name in run})
    write({"kind": "importtime", "side": side, "runs": len(totals),
           "median_self_us": {name: statistics.median(
               run.get(name, 0) for run in totals) for name in groups}})
shutil.rmtree(SCRATCH, ignore_errors=True)
