"""The server under test, as the harness's child process.

Started by :mod:`wire` with ``PYTHONHASHSEED=0`` and one argument that
matters: the generated durable directory.  It builds the workload's
stack with the program's public constructors only, times each stage,
announces the port, and serves until its stdin says ``stop`` (or
closes: a harness that dies takes its server with it).

    browse-hot, browse-cold   open_database → closure → compact_store()
                              → DatabaseService → ServiceServer
    write-mix                 the same + ReplicaPool(workers=1)
    ingest-recover            what ``python -m repro.shell serve DIR``
                              does: durable DatabaseService(session=…),
                              no compaction

Protocol: one JSON object per line each way.  The child first sends
``{"ready": …}`` with the port and the stage clock readings
(``perf_counter`` is ``CLOCK_MONOTONIC``, so the harness can subtract
its own reading), then answers each command read from stdin.  The
commands beyond ``stats`` and ``stop`` belong to traced runs and are
implemented in :mod:`inproc`.
"""

from __future__ import annotations

import json
import sys
import time


def _stats(service, pool) -> dict:
    from repro.browse.retraction import PROBE_COUNTERS

    snapshot = service.read_view()
    out = {
        "service": service.stats(),
        "primary_db": snapshot.stats(),
        "probe_counters": dict(PROBE_COUNTERS),
        "overlay_facts": getattr(snapshot.facts, "overlay_size", 0),
    }
    if pool is not None:
        out["pool"] = pool.stats()
        out["lag"] = pool.lag_stats()
        out["replica_db"] = pool.database_stats()
    return out


def main(argv) -> int:
    entered = time.perf_counter()
    workload, directory, src, traced = argv
    sys.path.insert(0, src)
    import inproc
    from repro.serve import DatabaseService
    from repro.serve.net import ServiceServer
    from repro.storage.session import open_database

    marks = {"entered": entered, "imported": time.perf_counter()}
    db, session = open_database(directory)
    marks["loaded"] = time.perf_counter()
    db.view()
    marks["closed"] = time.perf_counter()
    if workload != "ingest-recover":
        # Only the shipped ``serve`` entry point is durable; the other
        # stacks read the directory once and serve from memory.
        session.close()
        session = None
        db.compact_store()
    marks["compacted"] = time.perf_counter()
    extra = {}
    if traced == "1":
        if session is not None:
            session.detach()    # the service would, a moment later
        extra = inproc.master_write_path(db)
    marks["measured"] = time.perf_counter()
    shape = {"base_facts": len(db.facts),
             "closure_facts": len(db.closure().store)}
    service = DatabaseService(db, session=session)
    marks["service"] = time.perf_counter()
    pool = None
    if workload == "write-mix":
        from repro.serve.pool import ReplicaPool

        pool = ReplicaPool(service, workers=1)
    marks["pool"] = time.perf_counter()
    server = ServiceServer(service, port=0, pool=pool)
    server.start()
    print(json.dumps({"ready": {"port": server.address[1], "marks": marks,
                                "shape": shape, "write_path": extra}}),
          flush=True)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command.pop("cmd")
            if name == "stop":
                break
            if name == "stats":
                reply = _stats(service, pool)
            elif name == "read":
                reply = inproc.read_at(service, pool, **command)
            elif name == "write_acks":
                reply = inproc.write_acks(service, command["triples"])
            elif name == "leaves":
                reply = inproc.leaves(service, command["texts"])
            elif name == "storage":
                reply = inproc.storage(**command)
            else:
                raise ValueError(f"unknown command {name!r}")
            print(json.dumps({name: reply}), flush=True)
    finally:
        server.close()
        if pool is not None:
            pool.close()
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
