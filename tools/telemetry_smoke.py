#!/usr/bin/env python3
"""End-to-end telemetry smoke test (the CI guard for the obs stack).

Stands up the full serving topology in one process tree — primary
service, 2-process replica pool, TCP server — with metrics collection
and slow-query logging on, then drives it through a traced client and
asserts the whole telemetry surface actually works:

* a lone client's reads are primary-served, and a traced read issued
  while the primary is busy comes back with a stitched span tree
  covering at least two processes (client/server side plus the replica
  worker);
* the ``metrics`` verb returns a merged snapshot whose request
  counters cover the traffic just sent;
* the Prometheus exposition parses and carries the request series;
* the slow-query log captured the deliberately slow query;
* enough writes to outgrow the overlay budget make the writer fold
  (``serve.folds`` appears in the merged snapshot).

Run:  PYTHONPATH=src python tools/telemetry_smoke.py
Exits non-zero with a diagnostic on the first broken property.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.interned import OVERLAY_BUDGET  # noqa: E402
from repro.db import Database  # noqa: E402
from repro.obs import context as obs_context  # noqa: E402
from repro.obs import telemetry as obs_telemetry  # noqa: E402
from repro.serve import DatabaseService, ReplicaPool  # noqa: E402
from repro.serve.net import ServiceClient, ServiceServer  # noqa: E402


def build_database() -> Database:
    db = Database()
    for index in range(6):
        db.add(f"P{index}", "WORKS-IN", f"D{index % 2}")
        db.add(f"D{index % 2}", "PART-OF", "ORG")
    # A plain database: the service re-founds it on interned storage,
    # so the smoke covers the shared-memory generation lifecycle (share,
    # attach, fold, re-attach) end to end without the caller compacting
    # anything.
    return db


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main() -> int:
    obs_telemetry.enable_telemetry(fresh=True)
    service = DatabaseService(build_database(),
                              slow_query_seconds=0.0)  # log every read
    pool = ReplicaPool(service, workers=2)
    server = ServiceServer(service, port=0, pool=pool)
    server.start()
    host, port = server.address
    try:
        if pool.stats()["generation_seq"] is None:
            return fail("pool has no published shared-memory generation")
        with ServiceClient(host, port, trace=True) as client:
            for _ in range(3):
                client.query("(x, WORKS-IN, y)")
            if pool.stats()["primary_reads"] != 3:
                return fail("a lone client's reads were not served by"
                            " the primary")
            # A lone read never leaves the primary's process; hold its
            # read slot (as a concurrent reader would) so the traced
            # probe takes the worker route.
            with pool._primary_slot:  # noqa: SLF001 - smoke is white-box
                outcome = client.probe("(x, PART-OF, ORG)")
            if not outcome["succeeded"]:
                return fail("probe did not succeed")

            spans = client.last_trace
            processes = obs_context.trace_processes(spans)
            if len(spans) < 4:
                return fail(f"expected >= 4 spans, got {len(spans)}:\n"
                            + obs_context.render_trace(spans))
            if len(processes) < 2:
                return fail(f"trace covers {len(processes)} process(es),"
                            " expected >= 2")
            roots = obs_context.stitch(spans)
            if len(roots) != 1:
                return fail(f"expected one stitched root, got {len(roots)}")

            snapshot = client.metrics()
            requests = snapshot.get("counters", {}).get("serve.requests", 0)
            if requests < 4:
                return fail(f"merged snapshot shows {requests} requests,"
                            " expected >= 4")

            exposition = client.metrics(format="prometheus")
            series = obs_telemetry.parse_prometheus(exposition)
            if not any(name.startswith("repro_serve_requests_total")
                       for name in series):
                return fail("prometheus exposition missing"
                            " repro_serve_requests_total")

            slowlog = client.slowlog()
            if slowlog["total"] < 1:
                return fail("slow-query log is empty despite a 0s"
                            " threshold")

            # A traced request always reaches the service; a plain
            # one repeated is answered from the net layer's memo.
            with ServiceClient(host, port) as plain:
                first = plain.query("(x, WORKS-IN, y)")
                if plain.query("(x, WORKS-IN, y)") != first:
                    return fail("a repeated read changed its answer")
            counters = client.metrics().get("counters", {})
            answer_hits = counters.get("serve.net.answer_hits", 0)
            if answer_hits < 1:
                return fail("a repeated plain read and no"
                            " serve.net.answer_hits")

            # Enough writes to outgrow the overlay: the writer folds.
            for index in range(OVERLAY_BUDGET + 1):
                client.add(f"N{index}", "WORKS-IN", "D0")
            counters = client.metrics().get("counters", {})
            folds = counters.get("serve.folds", 0)
            if folds < 1:
                return fail(f"{OVERLAY_BUDGET + 1} writes and no"
                            " serve.folds in the merged snapshot")
            # Every fold is the pool's compaction: the workers were
            # sent the folded generations to attach.
            if counters.get("serve.pool.compactions", 0) != folds:
                return fail(f"{folds} fold(s) and"
                            f" {counters.get('serve.pool.compactions', 0)}"
                            " serve.pool.compactions")
            if not client.ask(f"(N{OVERLAY_BUDGET}, WORKS-IN, D0)"):
                return fail("a write is missing after the fold")

        print(f"telemetry smoke OK: {len(spans)} spans across"
              f" {len(processes)} processes, {requests} requests in the"
              f" merged snapshot, {len(series)} prometheus series,"
              f" {slowlog['total']} slow-log records, {folds} fold(s),"
              f" {answer_hits} answer-memo hit(s)")
        return 0
    finally:
        server.close()
        pool.close()
        service.close()
        obs_telemetry.disable_telemetry()


if __name__ == "__main__":
    sys.exit(main())
