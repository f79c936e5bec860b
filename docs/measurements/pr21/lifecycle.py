"""The generation lifecycle under writes, and what one step of it costs.

    python lifecycle.py TREE [WRITES…]

``TREE`` is a checkout of this repository (the change, or the parent
commit).  On the macro world (``build_world(1, "write-mix")``, 20 631
base / 41 261 closure facts), in process:

* ``steps``: seconds for one ``ColumnarGeneration.share()`` and one
  ``attach`` of the base heap's and the closure's generation, for one
  ``ColumnarGeneration.build`` of each (what the parent's pool ran when
  it compacted), for one writer fold (``compact_store()`` of a master
  that is 129 facts over) and, where the tree still has it, for one
  ``pool.compact_generation()``.
* per ``WRITES`` (default 0 100 130 400 2000): a fresh
  ``DatabaseService`` + ``ReplicaPool(workers=1)`` at default knobs,
  that many single-fact ``service.add`` calls, then 200 never-seen
  3-atom joins forced onto the worker (the primary's read slot held):
  the service's folds, the pool's compactions, how many of the 200
  plans the worker ran in the integer domain (its own ``exec.id_domain``
  counter), and the joins' p50.
"""

import json
import statistics
import sys
import time
from pathlib import Path

tree = Path(sys.argv[1]).resolve()
write_counts = [int(v) for v in sys.argv[2:]] or [0, 100, 130, 400, 2000]
sys.path.insert(0, str(tree / "src"))
sys.path.insert(0, str(tree / "benchmarks" / "macro"))

import world as macro_world  # noqa: E402
from repro import Database  # noqa: E402
from repro.core.interned import (  # noqa: E402
    ColumnarGeneration,
    unlink_generation,
)
from repro.obs import telemetry as obs  # noqa: E402
from repro.serve import DatabaseService, ReplicaPool  # noqa: E402

world = macro_world.build_world(1, "write-mix")


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def steps() -> dict:
    service = DatabaseService(Database(world.facts, with_axioms=False))
    out = {}
    try:
        snap = service.read_view()
        for label, store in (("base", snap.facts),
                             ("closure", snap.closure().store)):
            seconds, handle = timed(store.generation.share)
            out[f"share_{label}_ms"] = round(seconds * 1e3, 2)
            seconds, attached = timed(
                lambda: ColumnarGeneration.attach(handle))
            out[f"attach_{label}_ms"] = round(seconds * 1e3, 2)
            attached.close()
            store.generation.close()
            unlink_generation(handle.name)
            seconds, _ = timed(lambda: ColumnarGeneration.build(store))
            out[f"build_{label}_ms"] = round(seconds * 1e3, 2)
        service.add_facts([(f"X{i}", "KNOWS", "SKILL1")
                           for i in range(129)])
        stats = service.stats()
        out["folds"] = stats["folds"]
        out["fold_ms"] = round(stats["store"]["fold_pause_last_s"] * 1e3, 1)
        pool = ReplicaPool(service, workers=1)
        try:
            if hasattr(pool, "compact_generation"):
                service.add("Y", "KNOWS", "SKILL1")
                seconds, _ = timed(pool.compact_generation)
                out["compact_generation_ms"] = round(seconds * 1e3, 1)
        finally:
            pool.close()
    finally:
        service.close()
    return out


def lifecycle(writes: int) -> dict:
    obs.enable_telemetry(fresh=True)      # workers collect their own
    service = DatabaseService(Database(world.facts, with_axioms=False))
    pool = ReplicaPool(service, workers=1, heartbeat_interval=0)
    try:
        ticket = None
        for index in range(writes):
            ticket = service.add_async(
                (f"NEW{index}", "KNOWS", f"SKILL{index % 240}"))
            ticket.result(60.0)
        if ticket is not None:
            pool.wait_for_version(ticket.version, all_workers=True,
                                  timeout=120.0)

        def worker_counter(name: str) -> int:
            pool.refresh_metrics(timeout=30.0)
            snapshot = pool.worker_metrics()[0]["metrics"] or {}
            return snapshot.get("counters", {}).get(name, 0)

        before = worker_counter("exec.id_domain")
        plans = worker_counter("exec.plans")
        samples = []
        with pool._primary_slot:  # noqa: SLF001 - force the worker route
            for employee in world.order[:200]:
                text = (f"({employee}, WORKS-FOR, d) and"
                        f" (d, ∈, DEPARTMENT) and ({employee}, EARNS, y)")
                started = time.perf_counter()
                rows = pool.query(text)
                samples.append(time.perf_counter() - started)
                assert rows
        stats = pool.stats()
        return {
            "writes": writes,
            "folds": service.stats()["folds"],
            "pool_compactions": stats["compactions"],
            "generation_log": stats["generation_log"],
            "worker_served": stats["reads"] - stats["primary_reads"]
            - stats["fallback_reads"],
            "worker_plans": worker_counter("exec.plans") - plans,
            "worker_id_domain": worker_counter("exec.id_domain") - before,
            "join_p50_us": round(statistics.median(samples) * 1e6, 1),
        }
    finally:
        pool.close()
        service.close()
        obs.disable_telemetry()


print(json.dumps({"tree": str(tree), "steps": steps()}))
for count in write_counts:
    print(json.dumps(lifecycle(count)))
