"""What ``shell serve DIR --workers 1`` constructs, timed.

    python pool_ready.py TREE [RUNS]

``TREE`` is a checkout of this repository (the change, or the parent
commit).  Builds the macro world of ``benchmarks/macro/world.py``
(``build_world(1, "write-mix")`` + ``write_directory``) as a durable
directory, then does what ``repro.shell._serve_main`` does with it —
``open_database`` -> ``DatabaseService(db, session=…)`` ->
``ReplicaPool(service, workers=1, …)`` — and reports, per run, the
seconds from "service constructed" to "pool ready", and the seconds
from ``crash_worker(0)`` to the respawned worker being ready and caught
up.  The pool is built the way that tree's ``shell.py`` builds it: with
``bootstrap_directory=`` where the constructor still has it.
"""

import inspect
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

tree = Path(sys.argv[1]).resolve()
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 5
sys.path.insert(0, str(tree / "src"))
sys.path.insert(0, str(tree / "benchmarks" / "macro"))

import world as macro_world  # noqa: E402
from repro.serve import DatabaseService, ReplicaPool  # noqa: E402
from repro.storage.session import open_database  # noqa: E402

by_directory = "bootstrap_directory" in inspect.signature(
    ReplicaPool.__init__).parameters
ready, respawn, shape = [], [], {}
for _ in range(runs):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "state"
        directory.mkdir()
        world = macro_world.build_world(1, "write-mix")
        macro_world.write_directory(world, directory, "write-mix")
        db, session = open_database(directory)
        service = DatabaseService(db, session=session)
        shape = {"base_facts": len(service.read_view().facts),
                 "closure_facts": len(service.read_view().closure().store)}
        started = time.perf_counter()
        if by_directory:
            pool = ReplicaPool(service, workers=1,
                               bootstrap_directory=str(directory))
        else:
            pool = ReplicaPool(service, workers=1)
        ready.append(time.perf_counter() - started)
        try:
            assert pool.database_stats()["base_facts"] == shape["base_facts"]
            started = time.perf_counter()
            pool.crash_worker(0)
            while True:
                stats = pool.stats()
                if stats["respawns"] and stats["alive"] == 1 \
                        and stats["max_lag"] == 0:
                    break
                time.sleep(0.001)
            pool.wait_ready(timeout=120.0)
            respawn.append(time.perf_counter() - started)
        finally:
            pool.close()
            service.close()

print(json.dumps({
    "tree": str(tree), "bootstrap_directory": by_directory, **shape,
    "pool_ready_s": [round(v, 4) for v in ready],
    "pool_ready_median_s": round(statistics.median(ready), 4),
    "respawn_s": [round(v, 4) for v in respawn],
    "respawn_median_s": round(statistics.median(respawn), 4),
}))
