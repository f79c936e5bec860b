"""What ``db.snapshot_p50_ms`` times: a snapshot of a hash store.

    python snapshot_copy.py TREE [SEED]

The macro harness's traced run times ``db.snapshot()`` inside
``inproc.master_write_path(db)``, which ``child.py`` calls *before*
``DatabaseService`` re-founds the database on interned storage.  For
ingest-recover the child also skips ``compact_store()``, so the row
times ``Database.snapshot()`` copying a hash store's indexes.  This
script builds the macro world of ingest-recover and of browse-cold
with ``TREE``'s own code, and times ``db.snapshot()`` (p50 of ten, ms)
on the closed hash store and again after ``compact_store()``.  Prints
one JSON object per workload.
"""

import json
import statistics
import sys
import time
from pathlib import Path


def p50_ms(call, times: int = 10) -> float:
    samples = []
    for _ in range(times):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return round(1e3 * statistics.median(samples), 3)


def main(tree: Path, seed: int) -> None:
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(tree / "benchmarks" / "macro"))
    from world import build_world

    from repro.db import Database

    for workload in ("ingest-recover", "browse-cold"):
        world = build_world(seed, workload)
        db = Database(world.facts, with_axioms=False)
        db.view()
        row = {"workload": workload, "base_facts": len(db.facts),
               "closure_facts": len(db.closure().store),
               "hash_ms": p50_ms(db.snapshot)}
        db.compact_store()
        row["compacted_ms"] = p50_ms(db.snapshot)
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve(),
         int(sys.argv[2]) if len(sys.argv) > 2 else 1)
