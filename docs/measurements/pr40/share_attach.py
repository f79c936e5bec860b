#!/usr/bin/env python3
"""What sharing and attaching a generation costs, on one or more trees.

    python3 share_attach.py [LABEL=]SRC ... [--runs N] [--repeats K]

Each SRC is a tree's ``src/`` directory, reported under LABEL
(default: SRC itself).  For each of N rounds (default 10) the script
starts one child per SRC, in turn (the order rotates from round to
round so no tree always goes first).  Every
child is pinned to one CPU (the lowest this process may run on) and
runs with ``PYTHONHASHSEED=0``.  It imports SRC's ``repro`` and this
repository's ``benchmarks/macro/world.py`` (not edited), and:

1. builds the write-mix world (seed 1, 5 000 employees), computes its
   closure and compacts it, as the macro benchmark's server does;
2. for the base generation and then the closure generation, K times
   (default 5): times ``share()``, ``ColumnarGeneration.attach()`` of
   what it returned, and one probe on the attached generation — the
   first ``match`` of one employee's facts through an
   ``InternedFactStore`` over it, which resolves the employee's name
   through the mapped name table and decodes the facts it finds — then
   closes the attached generation and unlinks what was shared.

Works with either shape of ``share()``: a handle carrying ``.name``
or the name itself.  Prints one JSON line per child (medians over the
K repeats, in ms for share / attach and µs for the probe, plus the
size of the file or segment in ``/dev/shm``), then one summary line
with the medians over rounds per LABEL.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))
KEYS = ("share_ms", "attach_ms", "probe_us")


def _child(src: str, repeats: int) -> dict:
    sys.path[:0] = [os.path.abspath(src), REPO]
    from benchmarks.macro.world import build_world
    from repro.core.facts import Template, Variable
    from repro.core.interned import (
        ColumnarGeneration, InternedFactStore, unlink_generation)
    from repro.db import Database

    world = build_world(1, "write-mix")
    db = Database(world.facts, with_axioms=False)
    db.view()
    db.compact_store()
    employee = world.order[0]
    pattern = Template(employee, Variable("r"), Variable("t"))
    out = {}
    for label, generation in (("base", db.facts.generation),
                              ("closure", db.closure().store.generation)):
        times = {key: [] for key in KEYS}
        expected = sorted(InternedFactStore.from_generation(
            generation).match(pattern))
        for _ in range(repeats):
            started = time.perf_counter()
            handle = generation.share()
            shared = time.perf_counter()
            attached = ColumnarGeneration.attach(handle)
            mapped = time.perf_counter()
            found = sorted(InternedFactStore.from_generation(
                attached).match(pattern))
            probed = time.perf_counter()
            assert found == expected and found
            size = os.path.getsize(os.path.join(
                "/dev/shm", getattr(handle, "name", handle)))
            attached.close()
            unlink_generation(getattr(handle, "name", handle))
            times["share_ms"].append(1e3 * (shared - started))
            times["attach_ms"].append(1e3 * (mapped - shared))
            times["probe_us"].append(1e6 * (probed - mapped))
        for key, values in times.items():
            out[f"{label}_{key}"] = round(statistics.median(values), 4)
        out[f"{label}_bytes"] = size
        out[f"{label}_facts"] = len(generation)
    return out


def _spawn(src: str, repeats: int, cpu: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.abspath(__file__), "--child",
               src, str(repeats)]
    completed = subprocess.run(
        ["taskset", "-c", str(cpu)] + command, env=env, check=True,
        capture_output=True, text=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(trees: list, runs: int, repeats: int) -> None:
    cpu = min(os.sched_getaffinity(0))
    srcs = {}
    for tree in trees:
        label, _, src = tree.rpartition("=")
        srcs[label or src] = src
    labels = list(srcs)
    rows = {label: [] for label in labels}
    for round_index in range(runs):
        shift = round_index % len(labels)
        for label in labels[shift:] + labels[:shift]:
            row = _spawn(srcs[label], repeats, cpu)
            row.update(src=label, round=round_index)
            rows[label].append(row)
            print(json.dumps(row), flush=True)
    summary = {
        label: {f"{gen}_{key}": round(statistics.median(
            row[f"{gen}_{key}"] for row in label_rows), 4)
            for gen in ("base", "closure") for key in KEYS}
        for label, label_rows in rows.items()}
    print(json.dumps({"summary": summary}), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--child":
        print(json.dumps(_child(sys.argv[2], int(sys.argv[3]))))
    else:
        args = sys.argv[1:]
        options = {"--runs": 10, "--repeats": 5}
        for flag in options:
            if flag in args:
                at = args.index(flag)
                options[flag] = int(args[at + 1])
                del args[at:at + 2]
        main(args, options["--runs"], options["--repeats"])
