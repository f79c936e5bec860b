"""closure_stages.py TREE DIR — one start of the browse-cold server's
stack in process, stage by stage, as one JSON line.

DIR is the durable directory ``benchmarks/macro/world.py`` writes for
browse-cold (seed 1; made by TREE's own ``write_directory`` when
missing).  In the order ``benchmarks/macro/child.py`` runs them:
``open_database`` (load), ``db.view()`` (closure), ``compact_store()``
(compact), ``DatabaseService`` (service).  Inside the closure:
``seed_copy`` (the first ``FactStore.copy``: the seed store),
``first_delta`` (the stratum's first delta — a second ``copy()`` on a
tree that has no ``RoundDelta``), ``rounds`` (``run_rounds``, all
rounds) and ``gc_collections`` (per generation, during the closure);
``*_minor_faults``: the process's minor page faults during the closure
and the compaction.  Then, on a fresh ``Database`` of the same facts
under telemetry (so its times run slower): ``store.lookups`` /
``store.adds`` / ``dispatch.pruned`` of one ``standard_closure()`` and
the rounds' split into ``solutions`` (the per-rule join times) and
``apply`` (``rule_times["(apply)"]``).

Run it pinned, alternating trees: ``taskset -c 1 python3
closure_stages.py TREE DIR [gc_off]``; ``gc_off`` disables the collector
before the first stage.
"""
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

tree = os.path.abspath(sys.argv[1])
directory = Path(sys.argv[2])
sys.path[:0] = [os.path.join(tree, "src"), tree]

from benchmarks.macro.world import build_world, write_directory  # noqa: E402
from repro.core.store import FactStore  # noqa: E402
from repro.db import Database  # noqa: E402
from repro.obs import Telemetry, use_telemetry  # noqa: E402
from repro.rules import dispatch  # noqa: E402
from repro.serve import DatabaseService  # noqa: E402
from repro.storage.session import open_database  # noqa: E402

if not (directory / "snapshot.json").exists():
    directory.mkdir(parents=True, exist_ok=True)
    write_directory(build_world(1, "browse-cold"), directory, "browse-cold")

if sys.argv[3:] == ["gc_off"]:
    gc.disable()
copies = []
first_deltas = []
rounds = []


def timed(record, fn):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record.append(time.perf_counter() - started)
    return wrapper


FactStore.copy = timed(copies, FactStore.copy)
if hasattr(dispatch, "RoundDelta"):
    dispatch.RoundDelta.of_store = classmethod(timed(
        first_deltas, dispatch.RoundDelta.of_store.__func__))
dispatch.run_rounds = timed(rounds, dispatch.run_rounds)

def faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


row = {"tree": tree, "gc_off": not gc.isenabled()}
started = time.perf_counter()
db, session = open_database(directory)
loaded = time.perf_counter()
before = [s["collections"] for s in gc.get_stats()]
copies.clear()
faulted = faults()
db.view()
closed = time.perf_counter()
row["gc_collections"] = [s["collections"] - b
                         for s, b in zip(gc.get_stats(), before)]
row["closure_minor_faults"] = faults() - faulted
session.close()
faulted = faults()
db.compact_store()
compacted = time.perf_counter()
row["compact_minor_faults"] = faults() - faulted
service = DatabaseService(db)
served = time.perf_counter()
service.close()
row.update({
    "load_s": loaded - started, "closure_s": closed - loaded,
    "compact_s": compacted - closed, "service_s": served - compacted,
    "setup_s": served - started,
    "seed_copy_s": copies[0],
    "first_delta_s": (first_deltas or copies[1:])[0],
    "rounds_s": rounds[0]})

facts = list(db.facts)
fresh = Database(facts)
with use_telemetry(Telemetry()) as telemetry:
    result = fresh.standard_closure()
row.update({name: telemetry.counters.get(name, 0) for name in
            ("store.lookups", "store.adds", "dispatch.pruned")})
times = dict(result.rule_times)
row["traced_apply_s"] = times.pop("(apply)", 0.0)
row["traced_solutions_s"] = sum(times.values())
print(json.dumps({k: round(v, 4) if isinstance(v, float) else v
                  for k, v in row.items()}))
