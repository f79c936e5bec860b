"""F15 — concurrent browsing sessions: navigation + probing end to end.

The paper's browsing loop alternates *navigation* (neighbourhood
steps) with *probing* (failed queries retracted wave by wave until
some retrieval succeeds, §5.2).  This harness prices the rebuilt probe
stack — interned generalization lattice, compiled executor + plan
cache, selectivity-ordered set-at-a-time waves, versioned menu cache —
as a user experiences it: whole sessions against
:class:`~repro.serve.DatabaseService` and the replica pool.

One **session** is three requests: a navigation star, a succeeding
probe (no retraction), and a deliberately overzoomed probe that climbs
a ``≺`` chain to a retraction menu.  Cells report sessions/s plus the
*menu latency* distribution — the time from issuing a failing probe to
holding its menu — under three regimes:

* **hot** — a small working set of sessions cycling; the lattice, plan
  cache, and menu cache are all warm.  The headline numbers.
* **cold-menus** — every failing probe is a distinct query text, so
  each menu is computed through the full wave process (warm lattice
  and plan cache, no menu reuse).
* **pool** — the hot mix fanned out over replica processes.

Every run also replays a sample of the probe workload through the
original stack (reference evaluator + networkx hierarchy + verbatim
candidate-at-a-time wave loop) and embeds the divergence count in the
summary — the committed document doubles as an equivalence witness
(``probe_divergence`` must be 0).

Run as a script to emit ``BENCH_probe_sessions.json``::

    PYTHONPATH=src python benchmarks/bench_f15_probe_sessions.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.benchio.harness import write_bench_json
from repro.browse.retraction import PROBE_COUNTERS
from repro.datasets.synthetic import deep_retraction_workload, \
    employee_workload
from repro.db import Database
from repro.serve import DatabaseService
from repro.serve.pool import ReplicaPool


#: Stamped into the document's ``config``.
NOTES = [
    "Since PR 19 every DatabaseService re-founds the Database it is"
    " given on interned storage and folds its overlay.  build_database()"
    " compacts *before* the closure exists, so the closure store used"
    " to be the base generation plus an overlay of every derived fact"
    " - past the executor's overlay budget, i.e. served by the string"
    " executor; the service now folds it at construction and every"
    " cell runs in the integer domain.",
    "This document was regenerated on the 2-core shared host (its"
    " predecessor came from a 1-core container), so compare cells with"
    " the file's own host block in mind.  Parent against change on"
    " this host, two alternating full runs: cold-menus 188 / 291 ->"
    " 272 / 315 sessions/s and pool 1 398 / 1 749 -> 1 956 / 1 897;"
    " the hot cells (menu-cache hits) did not separate from noise.",
]


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def build_database(n_employees: int, n_departments: int,
                   n_chains: int, chain_depth: int) -> Database:
    """The employee world plus ``n_chains`` disjoint generalization
    chains of relationship entities — each the seed of a probe that
    must climb exactly ``chain_depth`` waves to its menu."""
    db = Database()
    db.add_facts(employee_workload(n_employees, n_departments,
                                   seed=11).facts)
    for chain in range(n_chains):
        facts, _query = deep_retraction_workload(
            chain_depth, prefix=f"R{chain}C")
        db.add_facts(facts)
    db.compact_store()
    return db


def session_plan(index: int, n_employees: int, n_chains: int
                 ) -> List[Tuple[str, str]]:
    """The ``(verb, text)`` requests of one browsing session."""
    emp = f"EMP{index % max(n_employees, 1)}"
    chain = index % max(n_chains, 1)
    return [
        ("navigate", f"({emp}, *, *)"),
        ("probe", f"({emp}, EARNS, s)"),            # succeeds, no waves
        ("probe", f"(SOMEONE, R{chain}C0, THING)"),  # climbs to a menu
    ]


def cold_menu_plan(slot: int, index: int, n_employees: int
                   ) -> List[Tuple[str, str]]:
    """A session whose failing probe is a never-seen text: the menu
    must be computed, not served from the cache.  ``NOBODY…`` is an
    unknown entity, so the wave process terminates on the "no such
    database entities" diagnosis — the cheapest *complete* cold probe,
    isolating menu construction from chain depth."""
    emp = f"EMP{index % max(n_employees, 1)}"
    return [
        ("navigate", f"({emp}, *, *)"),
        ("probe", f"({emp}, EARNS, s)"),
        ("probe", f"(NOBODY{slot}X{index}, EARNS, s)"),
    ]


def percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------
def run_cell(target, mode: str, threads: int, sessions_per_thread: int,
             n_employees: int, n_chains: int,
             cold: bool = False) -> Dict[str, object]:
    """Drive ``threads`` browsers, each walking ``sessions_per_thread``
    sessions against ``target`` (a service or a replica pool).  Menu
    latency is recorded per *probe* request; sessions/s over the wall
    clock."""
    if not cold:   # warm pass: lattice, plans, menus
        for verb, text in session_plan(0, n_employees, n_chains):
            getattr(target, verb)(text)
    counters_before = dict(PROBE_COUNTERS)
    menu_latencies: List[List[float]] = [[] for _ in range(threads)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(threads + 1)

    def browser(slot: int) -> None:
        try:
            barrier.wait()
            mine = menu_latencies[slot]
            for index in range(sessions_per_thread):
                session = slot * sessions_per_thread + index
                if cold:
                    plan = cold_menu_plan(slot, index, n_employees)
                else:
                    plan = session_plan(session, n_employees, n_chains)
                for verb, text in plan:
                    call = getattr(target, verb)
                    if verb == "probe":
                        started = time.perf_counter()
                        call(text)
                        mine.append(time.perf_counter() - started)
                    else:
                        call(text)
        except BaseException as error:  # noqa: BLE001 - recorded
            errors.append(error)

    workers = [threading.Thread(target=browser, args=(slot,))
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
    flat = [sample for series in menu_latencies for sample in series]
    total_sessions = threads * sessions_per_thread
    row = {
        "mode": mode,
        "threads": threads,
        "sessions": total_sessions,
        "probes": len(flat),
        "wall_seconds": round(wall, 6),
        "sessions_per_second": round(total_sessions / wall, 1),
        "menu_p50_us": round(percentile(flat, 0.50) * 1e6, 1),
        "menu_p95_us": round(percentile(flat, 0.95) * 1e6, 1),
        "menu_p99_us": round(percentile(flat, 0.99) * 1e6, 1),
        "p99_us": round(percentile(flat, 0.99) * 1e6, 1),
    }
    # Menu-cache window (in-process modes only: replica processes keep
    # their own counters).
    window_probes = PROBE_COUNTERS["probes"] - counters_before["probes"]
    if window_probes:
        hits = PROBE_COUNTERS["menu_hits"] - counters_before["menu_hits"]
        misses = (PROBE_COUNTERS["menu_misses"]
                  - counters_before["menu_misses"])
        lookups = hits + misses
        row["menu_cache_hit_rate"] = \
            round(hits / lookups, 4) if lookups else 0.0
    return row


# ----------------------------------------------------------------------
# Equivalence witness
# ----------------------------------------------------------------------
def probe_divergence(db: Database, n_employees: int, n_chains: int,
                     samples: int) -> Optional[int]:
    """Replay a sample of the session probes through the original
    stack (reference evaluator, networkx hierarchy, verbatim wave
    loop) and count outcome mismatches.  ``None`` when networkx is not
    installed (the reference is an optional test dependency)."""
    try:
        from repro.browse.probe import GeneralizationHierarchy
    except ImportError:
        return None
    try:
        GeneralizationHierarchy([], [])
    except ImportError:
        return None
    from repro.browse.retraction import reference_probe
    from repro.query.evaluate import Evaluator

    hierarchy = GeneralizationHierarchy.from_store(db.closure().store)
    evaluator = Evaluator(db.view())
    texts = []
    for session in range(samples):
        texts += [text for verb, text in
                  session_plan(session, n_employees, n_chains)
                  if verb == "probe"]
    texts.append("(NOBODYX, EARNS, s)")
    divergences = 0
    for text in sorted(set(texts)):
        expected = reference_probe(evaluator, text, hierarchy)
        actual = db.probe(text)
        same = (
            actual.succeeded == expected.succeeded
            and actual.value == expected.value
            and len(actual.waves) == len(expected.waves)
            and actual.exhausted == expected.exhausted
            and actual.unknown_entities == expected.unknown_entities
            and actual.menu() == expected.menu()
            and all(
                [c.describe() for c in a.attempted]
                == [c.describe() for c in e.attempted]
                and [(s.describe(), s.value) for s in a.successes]
                == [(s.describe(), s.value) for s in e.successes]
                for a, e in zip(actual.waves, expected.waves))
        )
        if not same:
            divergences += 1
    return divergences


# ----------------------------------------------------------------------
# Matrix
# ----------------------------------------------------------------------
def run_matrix(quick: bool = False):
    if quick:
        n_employees, n_departments = 200, 8
        n_chains, chain_depth = 2, 3
        sessions_per_thread, thread_counts = 150, [1]
        cold_sessions = 50
        pool_workers, pool_threads, pool_sessions = 0, 0, 0
        divergence_samples = 20
    else:
        n_employees, n_departments = 1000, 20
        n_chains, chain_depth = 4, 4
        sessions_per_thread, thread_counts = 1000, [1, 4]
        cold_sessions = 300
        pool_workers, pool_threads, pool_sessions = 4, 8, 250
        divergence_samples = 60

    rows: List[Dict[str, object]] = []
    db = build_database(n_employees, n_departments, n_chains,
                        chain_depth)
    service = DatabaseService(db)
    try:
        for threads in thread_counts:
            rows.append(run_cell(service, "hot", threads,
                                 sessions_per_thread, n_employees,
                                 n_chains))
            print("  {mode} threads={threads}: {sessions_per_second}"
                  " sessions/s menu p50={menu_p50_us}us"
                  " p99={menu_p99_us}us".format(**rows[-1]))
        rows.append(run_cell(service, "cold-menus", 1, cold_sessions,
                             n_employees, n_chains, cold=True))
        print("  {mode} threads={threads}: {sessions_per_second}"
              " sessions/s menu p50={menu_p50_us}us"
              " p99={menu_p99_us}us".format(**rows[-1]))
        if pool_workers:
            pool = ReplicaPool(service, workers=pool_workers)
            try:
                rows.append(run_cell(pool, "pool", pool_threads,
                                     pool_sessions, n_employees,
                                     n_chains))
                print("  {mode} threads={threads}:"
                      " {sessions_per_second} sessions/s menu"
                      " p50={menu_p50_us}us p99={menu_p99_us}us"
                      .format(**rows[-1]))
            finally:
                pool.close()
        hierarchy = service.read_view().stats()["hierarchy"]
    finally:
        service.close()

    divergences = probe_divergence(db, n_employees, n_chains,
                                   divergence_samples)
    hot_single = next(row for row in rows
                      if row["mode"] == "hot" and row["threads"] == 1)
    cold_row = next(row for row in rows if row["mode"] == "cold-menus")
    summary = {
        "hot_sessions_per_second": hot_single["sessions_per_second"],
        "hot_menu_p99_us": hot_single["menu_p99_us"],
        "cold_menu_p99_us": cold_row["menu_p99_us"],
        "probe_divergence": divergences,
        "lattice": hierarchy,
    }
    return rows, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="F15 browsing-session benchmark: navigation +"
                    " probe sessions through DatabaseService and the"
                    " replica pool → BENCH_probe_sessions.json")
    parser.add_argument("--quick", action="store_true",
                        help="small world and session counts (the CI"
                             " smoke configuration)")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="SESSIONS",
                        help="exit non-zero unless the hot"
                             " single-thread cell sustains at least"
                             " SESSIONS sessions/s")
    parser.add_argument("--output", default="BENCH_probe_sessions.json",
                        help="where to write the JSON document")
    options = parser.parse_args(argv)
    print(f"F15 probe sessions ({'quick' if options.quick else 'full'})")
    rows, summary = run_matrix(quick=options.quick)
    write_bench_json(options.output, "F15-probe-sessions", rows,
                     summary=summary,
                     config={"quick": options.quick, "notes": NOTES})
    print(f"wrote {options.output}: {len(rows)} cells;"
          f" hot {summary['hot_sessions_per_second']} sessions/s"
          f" (menu p99 {summary['hot_menu_p99_us']}us),"
          f" divergence {summary['probe_divergence']}")
    if summary["probe_divergence"] not in (0, None):
        print(f"FAIL: {summary['probe_divergence']} probe outcomes"
              f" diverge from the reference wave process")
        return 1
    if (options.fail_below is not None
            and summary["hot_sessions_per_second"] < options.fail_below):
        print(f"FAIL: hot sessions/s"
              f" {summary['hot_sessions_per_second']}"
              f" < floor {options.fail_below}")
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest entries: sessions stay correct and observable end to end
# ----------------------------------------------------------------------
def test_f15_probe_sessions_agree_with_reference():
    db = build_database(50, 4, n_chains=2, chain_depth=3)
    service = DatabaseService(db)
    try:
        row = run_cell(service, "hot", 1, 100, 50, 2)
    finally:
        service.close()
    assert row["probes"] == 200
    assert row["sessions_per_second"] > 10    # sanity floor
    divergences = probe_divergence(db, 50, 2, samples=10)
    assert divergences in (0, None)


def test_f15_slow_probe_autopsy():
    """A slow probe's slowlog record carries the probe autopsy: wave
    and candidate counts plus the menu-cache outcome."""
    db = build_database(20, 3, n_chains=1, chain_depth=3)
    service = DatabaseService(db, slow_query_seconds=0.0)
    try:
        service.probe("(SOMEONE, R0C0, THING)")
        records = [record for record in service.slow_log.records()
                   if record["op"] == "probe"]
        assert records and "probe" in records[-1]
        autopsy = records[-1]["probe"]
        assert autopsy["waves"] == 3
        assert autopsy["attempted"] >= 3
        assert autopsy["cached"] is False
    finally:
        service.close()


if __name__ == "__main__":
    sys.exit(main())
