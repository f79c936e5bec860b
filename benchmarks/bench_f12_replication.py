"""F12 — the replica pool: multi-process read scaling past the GIL.

Measures what :class:`repro.serve.ReplicaPool` buys over the
thread-based service that F11 characterized:

* **read scaling** — aggregate throughput as replica worker processes
  grow (1 → 4), next to the thread-only service baseline at the same
  client concurrency.  Replica reads evaluate in worker processes, so
  aggregate throughput is no longer bound by the primary's GIL —
  *given cores to run on*.  Interpret the curve against the ``host``
  block ``write_bench_json`` stamps: on a 1-core container every
  configuration shares one core and the curve is flat by construction.
* **replication lag** — the distribution of seconds from delta
  emission on the writer thread to a worker's applied ack, under a
  steady write stream.  This is the staleness window a non-RYW read
  can observe.
* **failover** — hard-kill a worker mid-stream and measure the time
  until the pool is back at full strength with every replica caught
  up to the primary (reads never fail during the window — they fall
  back to the primary).
* **bootstrap at scale** — on a bulk heap (1M+ facts full, smaller
  with ``--quick``), pool construction wall clock and per-worker
  memory: the pool copies the service's generations into shared
  memory and every worker attaches them.  Memory is attributed per
  worker from ``/proc``: ``RssAnon`` is each worker's *private* pages —
  an attached generation does not land there.
* **generation lifecycle** — writes past several overlay budgets with
  a pool attached: the writer's folds, the pool's re-shares
  (``compactions``, one per fold), what is left in the worker's
  overlay, and the latency of reads forced onto the worker before the
  writes and after them.

Run as a script to emit ``BENCH_replication.json``::

    PYTHONPATH=src python benchmarks/bench_f12_replication.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Dict, List, Optional

from bench_f11_serving import build_database, percentile, query_mix

from repro.benchio.harness import rss_anon_mb, rss_mb
from repro.core.facts import Fact
from repro.datasets.synthetic import hierarchy_facts, membership_facts
from repro.db import Database
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.serve import DatabaseService, ReplicaPool

#: Stamped into the document's ``config``: which cells mean something
#: else than in documents written before primary-first pool routing.
NOTES = [
    "pool-read cells: the primary now serves whichever read finds it"
    " idle and the other client threads spill to the workers, so"
    " ops_per_second is primary + workers together (it was workers"
    " only) and fallback_reads counts only reads that wanted a worker"
    " and found none eligible.",
    "bootstrap-* cells: the read burst is one sequential client, which"
    " is now primary-served; ops_per_second there no longer times a"
    " replica round trip (bootstrap_seconds and the worker_rss columns"
    " are unchanged in meaning).",
    "failover: the probing reads are one sequential client and are now"
    " primary-served, so fallback_reads stays 0 unless a read spills"
    " during the outage.",
    "observed pass: its sequential reads are primary-served; the"
    " stamped metrics show serve.pool.primary_reads where they showed"
    " serve.pool.replica_reads.",
    "Every service is built with the shipped defaults: the"
    " replication-lag and observed passes write through add_async and"
    " get the default 2 ms batch_window, as before.",
    "bootstrap-* rows at 1 000 000 facts (PR 7's 1-core, 135 GB host)"
    " are kept in docs/measurements/pr18/BENCH_replication.pr17-1M.json;"
    " a 16 GB host has to pass --bootstrap-facts 120000.",
    "Attaching the service's shared generations is the only way a"
    " replica is built.  The copy bootstraps (a pickled heap per"
    " worker, or a replay of the durable directory) were deleted for"
    " what this file last recorded of them at 120 000 facts, 2 workers,"
    " on this 2-core host: bootstrap 8.8 s against 2.1 s attached"
    " (4.2x) and 506 MB of private pages per worker against 31 MB"
    " (16x).",
    "lifecycle cell: spilled_* are reads issued while the primary's"
    " read slot is held, so a worker answers them; before = straight"
    " after the pool is built, after = once the writes have been"
    " applied (or attached) everywhere.  worker_overlay_facts sums the"
    " worker's base and closure overlays, each of which the writer's"
    " fold keeps within the one budget (128).",
    "PR 23 deleted the versioned result LRU.  The read cells repeat a"
    " 48-query mix in process, so until then every read after a"
    " process's first 48 was an LRU hit and the cells timed a lookup"
    " plus, for a spilled read, the pipe; now each read runs its cached"
    " plan, on the primary or in the worker.  Cells that changed"
    " meaning: thread-baseline, pool-read x 1/2/4 workers,"
    " bootstrap-generation ops_per_second, lifecycle spilled_p50_*"
    " (ops_per_second and every percentile).  replication-lag,"
    " failover recovery, folds / compactions, bootstrap_seconds and"
    " the worker_rss columns did not change meaning.",
]


# ----------------------------------------------------------------------
# Read scaling
# ----------------------------------------------------------------------
def run_pool_readers(pool: ReplicaPool, queries: List[str],
                     client_threads: int,
                     ops_per_thread: int) -> Dict[str, object]:
    """``client_threads`` parent threads issuing reads through the
    pool; whichever finds the primary idle is evaluated there, the
    rest in the replica processes."""
    latencies: List[List[float]] = [[] for _ in range(client_threads)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(client_threads + 1)

    def reader(slot: int) -> None:
        try:
            barrier.wait()
            mine = latencies[slot]
            for index in range(ops_per_thread):
                text = queries[(slot * ops_per_thread + index)
                               % len(queries)]
                started = time.perf_counter()
                pool.query(text)
                mine.append(time.perf_counter() - started)
        except BaseException as error:  # noqa: BLE001 - recorded
            errors.append(error)

    workers = [threading.Thread(target=reader, args=(slot,))
               for slot in range(client_threads)]
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
    total = client_threads * ops_per_thread
    stats = pool.stats()
    return {
        "mode": "pool-read",
        "workers": stats["workers"],
        "client_threads": client_threads,
        "total_ops": total,
        "fallback_reads": stats["fallback_reads"],
        "wall_seconds": round(wall, 6),
        "ops_per_second": round(total / wall, 1),
        "p50_us": round(percentile(flat, 0.50) * 1e6, 1),
        "p95_us": round(percentile(flat, 0.95) * 1e6, 1),
        "p99_us": round(percentile(flat, 0.99) * 1e6, 1),
    }


def run_thread_baseline(service: DatabaseService, queries: List[str],
                        client_threads: int,
                        ops_per_thread: int) -> Dict[str, object]:
    """The same client concurrency served by the primary's threads —
    the F11 configuration the pool is being compared against."""
    latencies: List[List[float]] = [[] for _ in range(client_threads)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(client_threads + 1)

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
               for slot in range(client_threads)]
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
    total = client_threads * ops_per_thread
    return {
        "mode": "thread-baseline",
        "workers": 0,
        "client_threads": client_threads,
        "total_ops": total,
        "wall_seconds": round(wall, 6),
        "ops_per_second": round(total / wall, 1),
        "p50_us": round(percentile(flat, 0.50) * 1e6, 1),
        "p95_us": round(percentile(flat, 0.95) * 1e6, 1),
        "p99_us": round(percentile(flat, 0.99) * 1e6, 1),
    }


# ----------------------------------------------------------------------
# Replication lag
# ----------------------------------------------------------------------
def run_lag(service: DatabaseService, pool: ReplicaPool,
            writes: int) -> Dict[str, object]:
    """A steady write stream; report the emit→applied distribution."""
    tickets = []
    for index in range(writes):
        tickets.append(service.add_async((f"LAG{index}", "∈", "C1")))
        if (index + 1) % 5 == 0:
            time.sleep(0.002)   # pacing: batches form, acks drain
    for ticket in tickets:
        ticket.result(120.0)
    last = max(t.version for t in tickets if t.version is not None)
    pool.wait_for_version(last, all_workers=True, timeout=60.0)
    lag = pool.lag_stats()
    return {
        "mode": "replication-lag",
        "workers": pool.workers,
        "writes": writes,
        "deltas": pool.stats()["deltas_shipped"],
        "lag_samples": lag.get("samples", 0),
        "lag_p50_us": round(lag.get("p50_s", 0.0) * 1e6, 1),
        "lag_p95_us": round(lag.get("p95_s", 0.0) * 1e6, 1),
        "lag_p99_us": round(lag.get("p99_s", 0.0) * 1e6, 1),
        "lag_max_us": round(lag.get("max_s", 0.0) * 1e6, 1),
    }


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
def run_failover(service: DatabaseService,
                 pool: ReplicaPool) -> Dict[str, object]:
    """Kill one worker; time until the pool is whole and caught up."""
    ticket = service.add_async(("FAILOVER", "∈", "C2"))
    ticket.result(60.0)
    pool.wait_for_version(ticket.version, all_workers=True, timeout=60.0)
    before = pool.stats()
    started = time.perf_counter()
    pool.crash_worker(0)
    deadline_at = started + 120.0
    while time.perf_counter() < deadline_at:
        stats = pool.stats()
        if (stats["alive"] == stats["workers"]
                and stats["respawns"] > before["respawns"]
                and stats["max_lag"] == 0):
            break
        # Reads keep working throughout (the primary serves a lone
        # reader first anyway).
        pool.ask("(FAILOVER, ∈, C2)")
        time.sleep(0.01)
    recovery = time.perf_counter() - started
    after = pool.stats()
    return {
        "mode": "failover",
        "workers": after["workers"],
        "recovered": bool(after["alive"] == after["workers"]
                          and after["max_lag"] == 0),
        "recovery_seconds": round(recovery, 6),
        "fallback_reads": after["fallback_reads"],
        "worker_deaths": after["worker_deaths"],
        "respawns": after["respawns"],
    }


# ----------------------------------------------------------------------
# Generation lifecycle: fold -> share -> re-attach under writes
# ----------------------------------------------------------------------
def run_lifecycle(service: DatabaseService, pool: ReplicaPool,
                  queries: List[str], writes: int,
                  reads: int) -> Dict[str, object]:
    """Drive ``writes`` single-fact batches (several overlay budgets)
    through a pooled service and time worker-served reads on both
    sides of them."""

    def spilled_p50_us() -> float:
        samples = []
        # With the primary's slot held every read takes the worker
        # route, as a second concurrent reader's would.
        with pool._primary_slot:  # noqa: SLF001
            for index in range(reads):
                started = time.perf_counter()
                pool.query(queries[index % len(queries)])
                samples.append(time.perf_counter() - started)
        return round(percentile(samples, 0.50) * 1e6, 1)

    before_us = spilled_p50_us()
    folds_before = service.stats()["folds"]
    ticket = None
    for index in range(writes):
        ticket = service.add_async((f"LIFE{index}", "∈", "C1"))
        ticket.result(120.0)
    pool.wait_for_version(ticket.version, all_workers=True, timeout=120.0)
    after_us = spilled_p50_us()
    stats = pool.stats()
    store = pool.database_stats()["store"]
    return {
        "mode": "lifecycle",
        "workers": pool.workers,
        "writes": writes,
        "folds": service.stats()["folds"] - folds_before,
        "compactions": stats["compactions"],
        "share_failures": stats["share_failures"],
        "generation_log": stats["generation_log"],
        "retired_segments": stats["retired_segments"],
        "worker_overlay_facts": store["overlay_facts"]
        + store["tombstones"],
        "worker_generation_facts": store["generation_facts"],
        "spilled_reads": reads,
        "spilled_p50_before_us": before_us,
        "spilled_p50_after_us": after_us,
        "fallback_reads": stats["fallback_reads"],
    }


# ----------------------------------------------------------------------
# Bootstrap at scale: attach
# ----------------------------------------------------------------------
def build_bulk_database(n_facts: int) -> Database:
    """A heap dominated by flat attribute facts over a small rule-firing
    hierarchy — closure work stays bounded while the heap (the thing
    being shipped to or shared with workers) reaches ``n_facts``."""
    tree, leaves = hierarchy_facts(3, 3)
    db = Database()
    db.add_facts(tree)
    db.add_facts(membership_facts(leaves, 3))
    remaining = max(0, n_facts - len(db))
    entities = 1 + remaining // 20      # ~20 facts per source entity
    db.add_facts(Fact(f"E{index % entities}", f"ATTR{index % 40}",
                      f"V{index}")
                 for index in range(remaining))
    return db


def run_bootstrap(db: Database, queries: List[str],
                  workers: int, start_method: Optional[str],
                  read_ops: int) -> Dict[str, object]:
    """Build one pool and measure construction wall clock, per-worker
    memory, and a short read burst."""
    service = DatabaseService(db)
    try:
        parent_before = rss_mb()
        started = time.perf_counter()
        pool = ReplicaPool(service, workers=workers,
                           start_method=start_method,
                           ready_timeout=1800.0, read_timeout=300.0)
        bootstrap_wall = time.perf_counter() - started
        try:
            pids = [w.process.pid for w in pool._workers]
            worker_rss = [rss_mb(pid) for pid in pids]
            worker_anon = [rss_anon_mb(pid) for pid in pids]
            read_started = time.perf_counter()
            for index in range(read_ops):
                pool.query(queries[index % len(queries)])
            read_wall = time.perf_counter() - read_started
            stats = pool.stats()
            row: Dict[str, object] = {
                "mode": "bootstrap-generation",
                "facts": len(db),
                "workers": workers,
                "bootstrap_seconds": round(bootstrap_wall, 3),
                "bootstrap_seconds_per_worker": round(
                    bootstrap_wall / workers, 3),
                "read_ops": read_ops,
                "ops_per_second": round(read_ops / read_wall, 1),
                "fallback_reads": stats["fallback_reads"],
                "parent_rss_mb": rss_mb(),
                "parent_rss_before_mb": parent_before,
            }
            if all(v is not None for v in worker_rss):
                row["worker_rss_mb"] = round(
                    sum(worker_rss) / workers, 2)
            if all(v is not None for v in worker_anon):
                # Private pages per worker: what attaching allocated.
                row["worker_rss_anon_mb"] = round(
                    sum(worker_anon) / workers, 2)
            return row
        finally:
            pool.close()
    finally:
        service.close()


def run_bootstrap_matrix(n_facts: int, worker_counts: List[int],
                         start_method: Optional[str],
                         read_ops: int) -> List[Dict[str, object]]:
    """The attach sweep: one shared bulk primary, then a fresh pool
    per worker count.

    Defaults to the ``spawn`` start method: forked workers inherit the
    parent's whole heap as copy-on-write anonymous pages, which would
    drown the per-worker memory columns in shared baseline; spawned
    workers start from a clean interpreter, so ``RssAnon`` is exactly
    what bootstrapping this worker allocated.
    """
    if start_method is None:
        start_method = "spawn"
    build_started = time.perf_counter()
    db = build_bulk_database(n_facts)
    queries = query_mix(db, 48)
    db.view()       # warm the closure once, outside every timed cell
    print(f"  bulk heap: {len(db)} facts, closure warmed in"
          f" {time.perf_counter() - build_started:.1f}s")
    rows = []
    for workers in worker_counts:
        row = run_bootstrap(db, queries, workers, start_method, read_ops)
        rows.append(row)
        print("  {mode} workers={workers}:"
              " bootstrap={bootstrap_seconds}s"
              " worker_anon={anon}MB {ops_per_second} ops/s".format(
                  anon=row.get("worker_rss_anon_mb", "?"), **row))
    return rows


# ----------------------------------------------------------------------
# Observed pass (metrics snapshot for the JSON artifact)
# ----------------------------------------------------------------------
def run_observed_pass(depth: int, fanout: int, instances: int,
                      workers: int, reads: int,
                      writes: int) -> Dict[str, object]:
    """A short metrics-enabled pass through a real pool; the merged
    primary + worker snapshot is stamped into the JSON document."""
    with use_telemetry(Telemetry()):
        db = build_database(depth, fanout, instances)
        queries = query_mix(db, 48)
        service = DatabaseService(db)
        pool = ReplicaPool(service, workers=workers)
        try:
            tickets = [service.add_async((f"OBS{i}", "∈", "C3"))
                       for i in range(writes)]
            for ticket in tickets:
                ticket.result(60.0)
            for index in range(reads):
                pool.query(queries[index % len(queries)])
            snapshot = pool.metrics()
        finally:
            pool.close()
            service.close()
    return snapshot


# ----------------------------------------------------------------------
# Matrix
# ----------------------------------------------------------------------
def run_matrix(quick: bool = False,
               start_method: Optional[str] = None,
               bootstrap_facts: Optional[int] = None):
    if quick:
        depth, fanout, instances = 3, 2, 2
        worker_counts = [1, 2]
        client_threads, ops_per_thread = 4, 40
        lag_writes = 20
        lifecycle_writes, lifecycle_reads = 300, 60
        scale_facts = bootstrap_facts or 60_000
        scale_workers, scale_reads = [2], 60
    else:
        depth, fanout, instances = 4, 3, 3
        worker_counts = [1, 2, 4]
        client_threads, ops_per_thread = 8, 200
        lag_writes = 100
        lifecycle_writes, lifecycle_reads = 600, 200
        scale_facts = bootstrap_facts or 1_000_000
        scale_workers, scale_reads = [1, 2], 200

    rows: List[Dict[str, object]] = []

    # Thread baseline at the same client concurrency.
    db = build_database(depth, fanout, instances)
    queries = query_mix(db, 48)
    service = DatabaseService(db)
    try:
        rows.append(run_thread_baseline(service, queries,
                                        client_threads, ops_per_thread))
    finally:
        service.close()
    print("  {mode}: {ops_per_second} ops/s"
          " p50={p50_us}us p99={p99_us}us".format(**rows[-1]))

    # Pool scaling sweep (fresh primary + pool per cell).
    for workers in worker_counts:
        db = build_database(depth, fanout, instances)
        queries = query_mix(db, 48)
        service = DatabaseService(db)
        pool = ReplicaPool(service, workers=workers)
        try:
            rows.append(run_pool_readers(pool, queries,
                                         client_threads, ops_per_thread))
        finally:
            pool.close()
            service.close()
        print("  {mode} workers={workers}: {ops_per_second} ops/s"
              " p50={p50_us}us p99={p99_us}us".format(**rows[-1]))

    # Lag distribution + failover on one shared pool.
    db = build_database(depth, fanout, instances)
    service = DatabaseService(db)
    pool = ReplicaPool(service, workers=max(worker_counts))
    try:
        rows.append(run_lag(service, pool, lag_writes))
        print("  {mode}: p50={lag_p50_us}us p99={lag_p99_us}us"
              " max={lag_max_us}us over {lag_samples} acks".format(
                  **rows[-1]))
        rows.append(run_failover(service, pool))
        print("  {mode}: recovered={recovered} in"
              " {recovery_seconds}s ({fallback_reads} primary"
              " fallbacks)".format(**rows[-1]))
    finally:
        pool.close()
        service.close()

    # Fold -> share -> re-attach under writes, one worker.
    db = build_database(depth, fanout, instances)
    queries = query_mix(db, 48)
    service = DatabaseService(db)
    pool = ReplicaPool(service, workers=1)
    try:
        rows.append(run_lifecycle(service, pool, queries,
                                  lifecycle_writes, lifecycle_reads))
        print("  {mode}: {writes} writes -> {folds} folds,"
              " {compactions} re-shares, worker overlay"
              " {worker_overlay_facts}, spilled p50 {spilled_p50_before_us}"
              " -> {spilled_p50_after_us}us".format(**rows[-1]))
    finally:
        pool.close()
        service.close()

    # Attach bootstrap at scale.
    rows.extend(run_bootstrap_matrix(scale_facts, scale_workers,
                                     start_method, scale_reads))

    baseline = next(r for r in rows if r["mode"] == "thread-baseline")
    pool_rows = [r for r in rows if r["mode"] == "pool-read"]
    one = next((r for r in pool_rows if r["workers"] == 1), None)
    best = max(pool_rows, key=lambda r: r["ops_per_second"])
    lag_row = next(r for r in rows if r["mode"] == "replication-lag")
    failover_row = next(r for r in rows if r["mode"] == "failover")
    summary = {
        "worker_counts": [r["workers"] for r in pool_rows],
        "thread_baseline_ops_per_second": baseline["ops_per_second"],
        "pool_ops_per_second": {str(r["workers"]): r["ops_per_second"]
                                for r in pool_rows},
        "scaling_vs_one_worker": (
            round(best["ops_per_second"] / one["ops_per_second"], 2)
            if one else None),
        "best_workers": best["workers"],
        "lag_p99_us": lag_row["lag_p99_us"],
        "failover_recovery_seconds": failover_row["recovery_seconds"],
        "failover_recovered": failover_row["recovered"],
    }

    lifecycle_row = next(r for r in rows if r["mode"] == "lifecycle")
    summary.update({
        "lifecycle_folds": lifecycle_row["folds"],
        "lifecycle_compactions": lifecycle_row["compactions"],
        "lifecycle_worker_overlay_facts":
            lifecycle_row["worker_overlay_facts"],
        "lifecycle_spilled_p50_before_us":
            lifecycle_row["spilled_p50_before_us"],
        "lifecycle_spilled_p50_after_us":
            lifecycle_row["spilled_p50_after_us"],
    })

    # Bootstrap headline: attach at the largest worker count.
    boot_rows = [r for r in rows if r["mode"] == "bootstrap-generation"]
    if boot_rows:
        gen = max(boot_rows, key=lambda r: r["workers"])
        summary.update({
            "bootstrap_facts": gen["facts"],
            "bootstrap_workers": gen["workers"],
            "bootstrap_generation_seconds": gen["bootstrap_seconds"],
        })
        if "worker_rss_anon_mb" in gen:
            summary["worker_rss_anon_generation_mb"] = \
                gen["worker_rss_anon_mb"]

    # Observed pass: short, metrics-enabled, merged across processes.
    snapshot = run_observed_pass(
        depth, fanout, instances, workers=min(2, max(worker_counts)),
        reads=40 if quick else 120, writes=10 if quick else 30)
    merged_from = len(snapshot.get("counters", {}))
    print(f"  observed pass: {merged_from} merged counter series")
    return rows, summary, snapshot


def main(argv=None) -> int:
    from repro.benchio.harness import write_bench_json

    parser = argparse.ArgumentParser(
        description="F12 replication benchmark: pool read scaling,"
                    " replication lag, failover →"
                    " BENCH_replication.json")
    parser.add_argument("--quick", action="store_true",
                        help="small dataset and op counts (the CI"
                             " smoke configuration)")
    parser.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="multiprocessing start method for the"
                             " bootstrap-at-scale cells (CI exercises"
                             " spawn; default: platform default)")
    parser.add_argument("--bootstrap-facts", type=int, default=None,
                        help="bulk heap size for the bootstrap"
                             " cells (default: 1M full, 60k quick)")
    parser.add_argument("--output", default="BENCH_replication.json",
                        help="where to write the JSON document")
    options = parser.parse_args(argv)
    print(f"F12 replication matrix"
          f" ({'quick' if options.quick else 'full'})")
    rows, summary, snapshot = run_matrix(
        quick=options.quick, start_method=options.start_method,
        bootstrap_facts=options.bootstrap_facts)
    write_bench_json(
        options.output, "F12-replication", rows, summary=summary,
        config={"quick": options.quick,
                "start_method": options.start_method,
                "bootstrap_facts": options.bootstrap_facts,
                "notes": NOTES},
        metrics=snapshot)
    print(f"wrote {options.output}: {len(rows)} cells;"
          f" scaling {summary['scaling_vs_one_worker']}x"
          f" at {summary['best_workers']} workers,"
          f" failover {summary['failover_recovery_seconds']}s,"
          f" {summary['lifecycle_compactions']} re-shares over"
          f" {summary['lifecycle_folds']} folds,"
          f" attach {summary.get('bootstrap_generation_seconds')}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
