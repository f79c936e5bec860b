#!/usr/bin/env python3
"""What a replica worker costs a curator session, on two trees.

    python3 replica_share.py PARENT CHANGE [RUNS] [SESSIONS]

For each of RUNS rounds (default 10) the script starts one child per
tree, parent and change in turn (the side that goes first alternates
from round to round).  Every child is pinned to one CPU (the lowest
CPU this process may run on) and runs with ``PYTHONHASHSEED=0``; it
imports TREE's ``src/`` and its own ``benchmarks/macro/world.py``.  A
child:

1. builds the write-mix world (seed 1), computes its closure and
   compacts it, as the macro benchmark's server does;
2. ``solo`` — runs SESSIONS (default 200) write-mix curator sessions in
   process through a ``DatabaseService`` (navigate, succeeding probe,
   menu probe, join query, add a skill, navigate, remove it again) and
   times each whole session;
3. ``pooled`` — the same sessions on a second service over the same
   world with ``ReplicaPool(workers=1)``: reads through the pool's
   primary-first routing, as the TCP server sends them; the worker
   applies every batch's delta on the same CPU;
4. ``noop`` — ``pooled`` again, with the worker's
   ``apply_delta_message`` replaced by a no-op before the pool forks
   it: the worker still receives and acknowledges every record, so
   what this costs a session over ``solo`` is the IPC, the worker's
   process switches and the receiver thread alone (the worker's
   replica goes stale; every read is primary-served anyway);
5. ``apply`` — attaches an in-process replica to a third service's
   published generations, records the deltas of 40 curator edits (an
   add and a remove each) and times ``apply_delta_message`` per record
   on that replica.

Prints one JSON line per child, then a summary: per tree, the medians
over rounds of the solo, pooled and noop session p50s, of the worker's
share (pooled − solo) and of its IPC share (noop − solo), and of the
per-record apply p50s.  The share left after the change is the
change's worker share over the parent's.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

EDITS = 40


def _child(tree: str, sessions: int) -> dict:
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    from benchmarks.macro.world import build_world, session_at
    from repro.db import Database
    from repro.serve import DatabaseService, ReplicaPool
    from repro.serve import replica as replica_module
    from repro.serve.replica import (
        GenerationBootstrap, apply_delta_message,
        build_replica_from_generation, release_attached_stores)

    world = build_world(1, "write-mix")

    def database() -> Database:
        db = Database(world.facts, with_axioms=False)
        db.view()
        return db.compact_store()

    def run_sessions(service, reader) -> list:
        calls = {
            "navigate": reader.navigate, "probe": reader.probe,
            "query": reader.query,
            "add": lambda triple: service.add(*triple),
            "remove": lambda triple: service.remove(*triple),
        }
        walls = []
        for index in range(sessions):
            started = time.perf_counter()
            for _, verb, argument in session_at(world, "write-mix", index):
                calls[verb](argument)
            walls.append(time.perf_counter() - started)
        return walls

    out = {"tree": tree}
    service = DatabaseService(database())
    try:
        run_sessions(service, service)          # warm-up pass
        out["solo_ms"] = 1e3 * statistics.median(
            run_sessions(service, service))
    finally:
        service.close()

    real_apply = replica_module.apply_delta_message
    for mode in ("pooled", "noop"):
        if mode == "noop":
            replica_module.apply_delta_message = lambda db, delta: None
        service = DatabaseService(database())
        pool = ReplicaPool(service, workers=1, start_method="fork")
        replica_module.apply_delta_message = real_apply
        try:
            pool.wait_ready(timeout=120.0)
            run_sessions(service, pool)
            out[f"{mode}_ms"] = 1e3 * statistics.median(
                run_sessions(service, pool))
        finally:
            pool.close()
            service.close()

    service = DatabaseService(database())
    try:
        shared = GenerationBootstrap.share(*service.published_state())
        replica = build_replica_from_generation(shared)
        replica.view()
        records = []
        service.subscribe_deltas(records.append)
        for index in range(EDITS):
            session = session_at(world, "write-mix", index)
            triple = [arg for _, verb, arg in session if verb == "add"][0]
            service.add(*triple)
            service.remove(*triple)
        times = {"add": [], "remove": []}
        for delta in records:
            kind = "add" if delta.adds else "remove"
            started = time.perf_counter()
            apply_delta_message(replica, delta)
            times[kind].append(time.perf_counter() - started)
            replica.view()
        out["apply_add_us"] = 1e6 * statistics.median(times["add"])
        out["apply_remove_us"] = 1e6 * statistics.median(times["remove"])
        assert set(replica.closure().store) \
            == set(service.read_view().closure().store)
        release_attached_stores(replica)
        shared.unlink()
    finally:
        service.close()
    return out


def _spawn(tree: str, sessions: int, cpu: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.abspath(__file__), "--child",
               tree, str(sessions)]
    completed = subprocess.run(
        ["taskset", "-c", str(cpu)] + command, env=env, check=True,
        capture_output=True, text=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(parent: str, change: str, runs: int, sessions: int) -> None:
    cpu = min(os.sched_getaffinity(0))
    rows = {"parent": [], "change": []}
    for round_index in range(runs):
        order = [("parent", parent), ("change", change)]
        if round_index % 2:
            order.reverse()
        for side, tree in order:
            row = _spawn(tree, sessions, cpu)
            row.update(side=side, round=round_index)
            rows[side].append(row)
            print(json.dumps(row), flush=True)
    summary = {}
    for side, sides_rows in rows.items():
        med = {key: statistics.median(r[key] for r in sides_rows)
               for key in ("solo_ms", "pooled_ms", "noop_ms",
                           "apply_add_us", "apply_remove_us")}
        med["worker_share_ms"] = statistics.median(
            r["pooled_ms"] - r["solo_ms"] for r in sides_rows)
        med["ipc_share_ms"] = statistics.median(
            r["noop_ms"] - r["solo_ms"] for r in sides_rows)
        summary[side] = med
    summary["share_left"] = (summary["change"]["worker_share_ms"]
                             / summary["parent"]["worker_share_ms"])
    print(json.dumps({"summary": summary}), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--child":
        print(json.dumps(_child(sys.argv[2], int(sys.argv[3]))))
    else:
        main(sys.argv[1], sys.argv[2],
             int(sys.argv[3]) if len(sys.argv) > 3 else 10,
             int(sys.argv[4]) if len(sys.argv) > 4 else 200)
