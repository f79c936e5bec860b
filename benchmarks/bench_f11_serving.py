"""F11 — the serving layer: snapshot reads under concurrency.

Measures what :class:`repro.serve.DatabaseService` actually buys:

* **read-only scaling** — aggregate throughput and latency percentiles
  as reader threads grow (1 → 8) against a published snapshot, next to
  the single-threaded direct-``Database`` baseline.  Readers are pure
  Python, so the GIL bounds aggregate speedup near 1×; the point of
  this sweep is that added readers *don't collapse* throughput (no
  lock convoys — reads never contend) and tail latency stays bounded.
* **mixed read/write** — 8 readers racing a writer.  Here the service
  genuinely wins: writes coalesce into batches, so the closure is
  recomputed once per *batch* (``snapshot_publishes``), while the
  baseline recomputes per *write* and its readers see every
  intermediate state.  The coalescing ratio (writes / publishes) is
  the headline.

Run as a script to emit ``BENCH_serving.json``::

    PYTHONPATH=src python benchmarks/bench_f11_serving.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Dict, List

from repro.benchio.harness import write_bench_json
from repro.core.facts import Fact
from repro.datasets.synthetic import hierarchy_facts, membership_facts
from repro.db import Database
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.serve import DatabaseService

#: Stamped into the document's ``config``: what a reader comparing this
#: file with an older one has to know.
NOTES = [
    "Every service is built with the shipped defaults.  The mixed"
    " cells write through add_async, so the writer gives them the"
    " default 2 ms batch_window, as before; a blocking write would be"
    " drained the moment the writer wakes.",
    "No cell changed meaning with primary-first pool routing: F11 never"
    " reads through a ReplicaPool.",
    "Since PR 19 every DatabaseService re-founds the Database it is"
    " given on interned storage, so every service cell times an"
    " interned-backed service although build_database() returns a"
    " plain one (baseline-direct and mixed-baseline still time the"
    " plain Database).  Cells that moved on the 2-core host, parent"
    " against change, 4 alternating full runs: mixed, and with it"
    " mixed-telemetry-off / -on, 15-19 k -> 25-32 k ops/s (a publish"
    " shares the generation and copies the overlay).  No fold fires:"
    " 100 writes stay under the 128-fact overlay budget.",
    "PR 23 deleted the versioned result LRU.  Every cell repeats a"
    " 48-query mix in process, so until then every read after the"
    " first 48 was an LRU hit (p50 6-9 us) and the cells timed a dict"
    " lookup; now each read runs its cached plan.  Cells that changed"
    " meaning: read-only x 1/2/4/8 threads, baseline-direct, and the"
    " read side of mixed, mixed-baseline and mixed-telemetry-off / -on"
    " (ops_per_second and every percentile); telemetry_overhead_pct is"
    " now the overhead on an executed read, spans and counters"
    " included, not on a cache hit.  The coalescing ratio and publish"
    " counts did not change meaning.",
]


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def build_database(depth: int, fanout: int, instances: int) -> Database:
    """A hierarchy with memberships and inheritable class facts —
    queries exercise derivation, not just base lookup."""
    tree, leaves = hierarchy_facts(depth, fanout)
    db = Database()
    db.add_facts(tree)
    db.add_facts(membership_facts(leaves, instances))
    for index in range(8):
        db.add(f"C{index}", f"ATTR{index}", f"VALUE{index}")
    return db


def query_mix(db: Database, count: int) -> List[str]:
    """A deterministic rotation of queries over real entities:
    inherited attributes, class extents, and instance memberships."""
    instances = sorted({f.source for f in db.facts
                        if f.relationship == "∈"})
    queries = []
    for index in range(count):
        instance = instances[index % len(instances)]
        kind = index % 3
        if kind == 0:
            # Inherited through membership + the ≺ chain to the root.
            queries.append(f"({instance}, ATTR0, y)")
        elif kind == 1:
            queries.append(f"(x, ∈, C{index % 8})")
        else:
            queries.append(f"({instance}, ∈, y)")
    return queries


def percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


# ----------------------------------------------------------------------
# Read-only scaling
# ----------------------------------------------------------------------
def run_readers(service: DatabaseService, queries: List[str],
                threads: int, ops_per_thread: int) -> Dict[str, object]:
    latencies: List[List[float]] = [[] for _ in range(threads)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(threads + 1)

    def reader(slot: int) -> None:
        try:
            barrier.wait()
            mine = latencies[slot]
            for index in range(ops_per_thread):
                text = queries[(slot * ops_per_thread + index)
                               % len(queries)]
                started = time.perf_counter()
                service.query(text)
                mine.append(time.perf_counter() - started)
        except BaseException as error:  # noqa: BLE001 - recorded
            errors.append(error)

    workers = [threading.Thread(target=reader, args=(slot,))
               for slot in range(threads)]
    for worker in workers:
        worker.start()
    barrier.wait()
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    flat = [sample for series in latencies for sample in series]
    total = threads * ops_per_thread
    return {
        "mode": "read-only",
        "threads": threads,
        "total_ops": total,
        "wall_seconds": round(wall, 6),
        "ops_per_second": round(total / wall, 1),
        "p50_us": round(percentile(flat, 0.50) * 1e6, 1),
        "p95_us": round(percentile(flat, 0.95) * 1e6, 1),
        "p99_us": round(percentile(flat, 0.99) * 1e6, 1),
    }


def run_single_threaded_baseline(db: Database, queries: List[str],
                                 total_ops: int) -> Dict[str, object]:
    """The same op count against the bare Database, no service."""
    latencies: List[float] = []
    started = time.perf_counter()
    for index in range(total_ops):
        text = queries[index % len(queries)]
        before = time.perf_counter()
        db.query(text)
        latencies.append(time.perf_counter() - before)
    wall = time.perf_counter() - started
    return {
        "mode": "baseline-direct",
        "threads": 1,
        "total_ops": total_ops,
        "wall_seconds": round(wall, 6),
        "ops_per_second": round(total_ops / wall, 1),
        "p50_us": round(percentile(latencies, 0.50) * 1e6, 1),
        "p95_us": round(percentile(latencies, 0.95) * 1e6, 1),
        "p99_us": round(percentile(latencies, 0.99) * 1e6, 1),
    }


# ----------------------------------------------------------------------
# Mixed read/write
# ----------------------------------------------------------------------
def run_mixed(service: DatabaseService, queries: List[str],
              readers: int, ops_per_reader: int,
              writes: int) -> Dict[str, object]:
    """Readers race a writer pushing ``writes`` inserts through the
    coalescing queue; reports throughput plus the coalescing ratio."""
    publishes_before = service.stats()["snapshot_publishes"]
    latencies: List[List[float]] = [[] for _ in range(readers)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(readers + 2)

    def reader(slot: int) -> None:
        try:
            barrier.wait()
            mine = latencies[slot]
            for index in range(ops_per_reader):
                text = queries[(slot * ops_per_reader + index)
                               % len(queries)]
                started = time.perf_counter()
                service.query(text)
                mine.append(time.perf_counter() - started)
        except BaseException as error:  # noqa: BLE001 - recorded
            errors.append(error)

    def writer() -> None:
        try:
            barrier.wait()
            tickets = []
            for index in range(writes):
                tickets.append(
                    service.add_async((f"NEW{index}", "∈", "C0")))
                # Bursts of 10 with a gap: enough pacing that batches
                # form from arrival timing, not from one giant burst.
                if (index + 1) % 10 == 0:
                    time.sleep(0.003)
            for ticket in tickets:
                ticket.result(120.0)
        except BaseException as error:  # noqa: BLE001 - recorded
            errors.append(error)

    workers = [threading.Thread(target=reader, args=(slot,))
               for slot in range(readers)]
    workers.append(threading.Thread(target=writer))
    for worker in workers:
        worker.start()
    barrier.wait()
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    publishes = service.stats()["snapshot_publishes"] - publishes_before
    flat = [sample for series in latencies for sample in series]
    total_reads = readers * ops_per_reader
    return {
        "mode": "mixed",
        "threads": readers,
        "writes": writes,
        "snapshot_publishes": publishes,
        "coalescing_ratio": round(writes / max(1, publishes), 2),
        "total_ops": total_reads,
        "wall_seconds": round(wall, 6),
        "ops_per_second": round(total_reads / wall, 1),
        "p50_us": round(percentile(flat, 0.50) * 1e6, 1),
        "p95_us": round(percentile(flat, 0.95) * 1e6, 1),
        "p99_us": round(percentile(flat, 0.99) * 1e6, 1),
    }


def run_mixed_baseline(db: Database, queries: List[str],
                       reads: int, writes: int) -> Dict[str, object]:
    """Single thread interleaving the same reads and writes directly:
    every write lands individually (no batching), and reads between
    writes pay whatever recomputation the mutation caused."""
    interval = max(1, reads // max(1, writes))
    latencies: List[float] = []
    write_index = 0
    started = time.perf_counter()
    for index in range(reads):
        if write_index < writes and index % interval == 0:
            db.add_fact(Fact(f"NEW{write_index}", "∈", "C0"))
            write_index += 1
        text = queries[index % len(queries)]
        before = time.perf_counter()
        db.query(text)
        latencies.append(time.perf_counter() - before)
    while write_index < writes:
        db.add_fact(Fact(f"NEW{write_index}", "∈", "C0"))
        write_index += 1
    wall = time.perf_counter() - started
    return {
        "mode": "mixed-baseline",
        "threads": 1,
        "writes": writes,
        "snapshot_publishes": writes,   # one visible state per write
        "coalescing_ratio": 1.0,
        "total_ops": reads,
        "wall_seconds": round(wall, 6),
        "ops_per_second": round(reads / wall, 1),
        "p50_us": round(percentile(latencies, 0.50) * 1e6, 1),
        "p95_us": round(percentile(latencies, 0.95) * 1e6, 1),
        "p99_us": round(percentile(latencies, 0.99) * 1e6, 1),
    }


# ----------------------------------------------------------------------
# Telemetry overhead
# ----------------------------------------------------------------------
def run_telemetry_passes(depth: int, fanout: int, instances: int,
                         readers: int, ops_per_reader: int, writes: int,
                         repeat: int = 3):
    """The mixed workload with telemetry off and with telemetry on, so
    the committed JSON carries the instrumentation overhead next to
    the numbers, plus the metrics snapshot from an observed pass.

    The threaded mixed workload is noisy (scheduler placement moves
    run-to-run throughput far more than a few counter increments do),
    so each mode runs ``repeat`` times interleaved — off, on, off, on,
    … — and the best run per mode is compared: interleaving cancels
    machine drift, best-of cancels unlucky placements."""
    def one_pass(telemetry: bool) -> Dict[str, object]:
        db = build_database(depth, fanout, instances)
        queries = query_mix(db, 48)
        if telemetry:
            with use_telemetry(Telemetry()) as registry:
                service = DatabaseService(db)
                try:
                    row = run_mixed(service, queries, readers,
                                    ops_per_reader, writes)
                finally:
                    service.close()
                row["snapshot"] = registry.snapshot()
        else:
            service = DatabaseService(db)
            try:
                row = run_mixed(service, queries, readers,
                                ops_per_reader, writes)
            finally:
                service.close()
        return row

    best: Dict[bool, Dict[str, object]] = {}
    for _ in range(repeat):
        for telemetry in (False, True):
            row = one_pass(telemetry)
            if (telemetry not in best
                    or row["ops_per_second"]
                    > best[telemetry]["ops_per_second"]):
                best[telemetry] = row

    snapshot = best[True].pop("snapshot")
    best[False]["mode"] = "mixed-telemetry-off"
    best[True]["mode"] = "mixed-telemetry-on"
    rows = [best[False], best[True]]
    off_rate = rows[0]["ops_per_second"]
    on_rate = rows[1]["ops_per_second"]
    overhead_pct = round(100.0 * (off_rate - on_rate) / max(off_rate, 1e-9),
                         2)
    return rows, overhead_pct, snapshot


# ----------------------------------------------------------------------
# Matrix
# ----------------------------------------------------------------------
def run_matrix(quick: bool = False):
    if quick:
        depth, fanout, instances = 3, 2, 2
        ops_per_thread, thread_counts = 60, [1, 4]
        mixed_readers, mixed_ops, writes = 4, 60, 20
    else:
        depth, fanout, instances = 4, 3, 3
        ops_per_thread, thread_counts = 400, [1, 2, 4, 8]
        mixed_readers, mixed_ops, writes = 8, 300, 100

    rows: List[Dict[str, object]] = []

    # Read-only sweep (fresh service per cell: cold shared cache would
    # otherwise make later cells unfairly fast).
    for threads in thread_counts:
        db = build_database(depth, fanout, instances)
        queries = query_mix(db, 48)
        service = DatabaseService(db)
        try:
            rows.append(run_readers(service, queries, threads,
                                    ops_per_thread))
        finally:
            service.close()
        print("  {mode} threads={threads}: {ops_per_second} ops/s"
              " p50={p50_us}us p99={p99_us}us".format(**rows[-1]))

    baseline_db = build_database(depth, fanout, instances)
    baseline_queries = query_mix(baseline_db, 48)
    rows.append(run_single_threaded_baseline(
        baseline_db, baseline_queries,
        ops_per_thread * max(thread_counts)))
    print("  {mode}: {ops_per_second} ops/s p50={p50_us}us".format(
        **rows[-1]))

    # Mixed read/write: service vs direct interleaving.
    db = build_database(depth, fanout, instances)
    queries = query_mix(db, 48)
    service = DatabaseService(db)
    try:
        rows.append(run_mixed(service, queries, mixed_readers,
                              mixed_ops, writes))
    finally:
        service.close()
    print("  {mode}: {ops_per_second} ops/s, {writes} writes in"
          " {snapshot_publishes} publishes"
          " ({coalescing_ratio}x coalescing)".format(**rows[-1]))

    db = build_database(depth, fanout, instances)
    queries = query_mix(db, 48)
    rows.append(run_mixed_baseline(db, queries,
                                   mixed_readers * mixed_ops, writes))
    print("  {mode}: {ops_per_second} ops/s".format(**rows[-1]))

    service_mixed = rows[-2]
    baseline_mixed = rows[-1]

    # Telemetry overhead: the same mixed workload with telemetry off and
    # on; the observed pass also yields the snapshot stamped into the
    # JSON document.
    telemetry_rows, overhead_pct, snapshot = run_telemetry_passes(
        depth, fanout, instances, mixed_readers, mixed_ops, writes,
        repeat=1 if quick else 3)
    rows.extend(telemetry_rows)
    print(f"  telemetry overhead: {overhead_pct}% "
          f"({telemetry_rows[0]['ops_per_second']} ops/s off,"
          f" {telemetry_rows[1]['ops_per_second']} ops/s on)")

    summary = {
        "max_reader_threads": max(thread_counts),
        "read_only_ops_per_second": max(
            row["ops_per_second"] for row in rows
            if row["mode"] == "read-only"),
        "baseline_ops_per_second": next(
            row["ops_per_second"] for row in rows
            if row["mode"] == "baseline-direct"),
        "mixed_coalescing_ratio": service_mixed["coalescing_ratio"],
        "mixed_service_p99_us": service_mixed["p99_us"],
        "mixed_baseline_p99_us": baseline_mixed["p99_us"],
        "telemetry_overhead_pct": overhead_pct,
    }
    return rows, summary, snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="F11 serving benchmark: reader scaling, latency"
                    " percentiles, write coalescing →"
                    " BENCH_serving.json")
    parser.add_argument("--quick", action="store_true",
                        help="small dataset and op counts (the CI"
                             " smoke configuration)")
    parser.add_argument("--output", default="BENCH_serving.json",
                        help="where to write the JSON document")
    options = parser.parse_args(argv)
    print(f"F11 serving matrix ({'quick' if options.quick else 'full'})")
    rows, summary, snapshot = run_matrix(quick=options.quick)
    write_bench_json(
        options.output, "F11-serving", rows, summary=summary,
        config={"quick": options.quick, "notes": NOTES},
        metrics=snapshot)
    print(f"wrote {options.output}: {len(rows)} cells;"
          f" coalescing {summary['mixed_coalescing_ratio']}x,"
          f" service p99 {summary['mixed_service_p99_us']}us vs"
          f" baseline p99 {summary['mixed_baseline_p99_us']}us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
