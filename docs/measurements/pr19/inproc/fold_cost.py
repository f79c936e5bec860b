#!/usr/bin/env python3
"""Fold counts and amortised cost, in process, at both world sizes.

    python3 fold_cost.py TREE [SESSIONS]

Builds the macro benchmark's world (seed 1) at 500 and at 5 000
employees, hands it to a non-durable ``DatabaseService`` (closure on the
hash store, then the service's own re-founding), drives SESSIONS
ingest-recover sessions (3 adds, 1 remove, 4 reads) through it, and
prints, per world and per overlay budget: folds, fold pause mean / max,
write acknowledgement p50 / mean, publish pause mean / max, read p50s.
The budget is one constant; the run with another value patches it in
the two modules that import it — measurement only.
"""
import gc
import os
import statistics
import sys
import time

tree = sys.argv[1]
sessions = int(sys.argv[2]) if len(sys.argv) > 2 else 120
sys.path.insert(0, tree + "/src")
sys.path.insert(0, tree + "/benchmarks/macro")
os.sched_setaffinity(0, {1})

import world as world_mod  # noqa: E402
from repro.db import Database  # noqa: E402
from repro.query import exec as exec_mod  # noqa: E402
from repro.serve import DatabaseService  # noqa: E402
from repro.serve import service as service_mod  # noqa: E402


def run(size, budget):
    world_mod.WORLD_SIZE["ingest-recover"] = size
    world = world_mod.build_world(1, "ingest-recover", False)
    service_mod.OVERLAY_BUDGET = exec_mod.OVERLAY_BUDGET = budget
    db = Database(world.facts, with_axioms=False)
    db.view()
    started = time.perf_counter()
    service = DatabaseService(db)
    refound = time.perf_counter() - started
    shape = service.stats()["store"]["generation_facts"]
    acks, reads = [], {}
    gc.collect()
    for index in range(sessions):
        for kind, verb, argument in world_mod.session_at(
                world, "ingest-recover", index):
            at = time.perf_counter()
            if verb in ("add", "remove"):
                getattr(service, verb)(*argument)
                acks.append(time.perf_counter() - at)
            else:
                answer = getattr(service, verb)(argument)
                if verb == "navigate":
                    answer.render()
                reads.setdefault(kind, []).append(time.perf_counter() - at)
    stats = service.stats()
    store = stats["store"]
    service.close()
    folds = store["folds"]
    fold_total = sum(acks) - 0  # acks include the folds
    print(f"world {size[0]:5d} employees ({shape} facts in generations)"
          f"  budget {budget:3d}: re-found {1e3 * refound:6.1f} ms,"
          f" {len(acks)} writes, folds {folds}"
          f" (one per {len(acks) / max(folds, 1):.0f} writes),"
          f" fold max {1e3 * store['fold_pause_max_s']:6.1f} ms,"
          f" ack p50 {1e3 * statistics.median(acks):.2f} ms"
          f" mean {1e3 * statistics.mean(acks):.2f} ms,"
          f" publish mean"
          f" {1e3 * stats['publish_pause_total_s'] / stats['snapshot_publishes']:.3f}"
          f" max {1e3 * stats['publish_pause_max_s']:.2f} ms; reads p50 us "
          + " ".join(f"{k} {1e6 * statistics.median(v):.0f}"
                     for k, v in reads.items()))


for size in ((500, 5), (5000, 50)):
    for budget in (128, 48):
        run(size, budget)
