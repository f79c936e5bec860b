"""The traced run: per-layer numbers, taken from outside the program.

No file under ``src/`` is instrumented.  After the (shortened) wire
window, the same server child is asked to go on with the workload's
sequence while each session's reads are issued at one of successively
deeper public entry points — the **ladder**:

    wire      ServiceClient.<verb>, from this process over TCP
    pool      ReplicaPool.<verb>                 (write-mix only)
    service   DatabaseService.<verb>
    snapshot  service.read_view().<verb>         (the published copy)

The wire rung is timed here, the others inside the child
(``inproc.py``), all on one stack with one set of caches, each rung on
its own never-seen sessions so that cache state is the same at every
rung.  A layer's self time is the p50 of its rung minus the p50 of the
rung below.  Below the last rung the layers' public functions are
called directly, uncached.  Writes always travel the wire, as in the
untraced run, so the connection's read-your-writes floor is current.

Counts come from the public ``stats()`` surfaces of the child,
differenced across the wire window.
"""

from __future__ import annotations

import json
import time
from typing import Dict

from wire import READ_KINDS, Server, call_verb, p50, percentile
from world import build_plan, write_directory

#: Ladder sessions per rung.  Each rung gets them in two blocks,
#: interleaved with the other rungs' blocks (drift hits every rung
#: alike); a block is a multiple of four sessions — three 1-wave menus
#: and one depth-4 chain, two adds and two removes — so every rung sees
#: the same mix, and long enough that the requests after a change of
#: rung, which find the CPU's caches full of the other rung's code, do
#: not reach its median (blocks of four sessions read 20 % slow).
#: Reads on the write workloads each follow an acknowledged write
#: (tens of ms), so they get fewer.
SESSIONS_PER_RUNG = {"browse-hot": 128, "browse-cold": 96,
                     "write-mix": 24, "ingest-recover": 24}


def wire_bytes(request, answer) -> int:
    """Bytes one request and its response occupy on the wire, framed
    exactly as ``serve/net.py`` frames them."""
    _kind, verb, argument = request
    body: dict = {"op": verb}
    if verb in ("probe", "query"):
        body["query"] = argument
    elif verb == "navigate":
        body["pattern"] = argument
    elif verb in ("add", "remove"):
        body["fact"] = list(argument)
    sent = json.dumps(body, ensure_ascii=False) + "\n"
    received = json.dumps({"ok": True, "result": answer},
                          ensure_ascii=False) + "\n"
    return len(sent.encode("utf-8")) + len(received.encode("utf-8"))


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def from_the_window(plan, expected, window, stages, rss, before, after,
                    run) -> Dict[str, float]:
    """Counts of the child across the window, tails, tracing overhead."""
    m: Dict[str, float] = {}
    total_bytes = sum(
        wire_bytes(request, answer)
        for sessions, answers in zip(plan.rounds, expected)
        for session, wanted in zip(sessions, answers)
        for request, answer in zip(session, wanted))
    m["net.bytes_per_request"] = total_bytes / sum(window.round_requests)

    sessions, menus = window.samples("session"), window.samples("menu")
    m["client.session_p99_ms"] = percentile(sessions, 0.99) * 1e3
    m["client.menu_p99_us"] = percentile(menus, 0.99) * 1e6
    run.notes.append(f"tails over {len(sessions)} sessions and"
                     f" {len(menus)} menus: diagnostic, never gated")
    # Traced and untraced blocks alternate inside every round: pair
    # them per round, so drift between rounds cancels.
    m["trace.overhead_pct"] = 100.0 * (p50([
        traced / plain for traced, plain in zip(
            window.round_p50s("session.traced", 1.0),
            window.round_p50s("session.plain", 1.0))]) - 1.0)

    # Every database that served reads: the primary's snapshots and,
    # on write-mix, the replica (a read the replica is too stale for
    # falls back to the primary).
    served = [db for db in ("primary_db", "replica_db") if db in after]

    def cache(which: str, counter: str) -> float:
        return sum(_delta(after, before, db, which, counter)
                   for db in served)

    m["plancache.hit_rate"] = _rate(cache("plan_cache", "hits"),
                                    cache("plan_cache", "misses"))
    m["plancache.recompiles"] = cache("plan_cache", "recompiles")
    m["cache.result_hit_rate"] = _rate(cache("result_cache", "hits"),
                                       cache("result_cache", "misses"))
    m["cache.evictions"] = cache("result_cache", "evictions")
    # Counters of the long-lived databases only: a published snapshot
    # starts its own at zero, so the primary reports the last one's.
    m["lattice.rebuilds"] = sum(
        after[db]["hierarchy"]["rebuilds"] for db in served)
    m["lattice.patches"] = sum(
        after[db]["hierarchy"]["patches"] for db in served)
    m["interned.overlay_facts"] = after["overlay_facts"]
    m["retraction.waves_per_menu"] = \
        run.exact["retraction.waves_per_menu"]
    m["exec.rows_per_query"] = run.exact["exec.rows_per_query"]
    base = run.exact["world.base_facts"]
    m["dispatch.derived_per_base"] = \
        (run.exact["world.closure_facts"] - base) / base

    batches = _delta(after, before, "service", "batches")
    publishes = _delta(after, before, "service", "snapshot_publishes")
    m["service.batches"] = batches
    m["service.ops_per_batch"] = \
        _delta(after, before, "service", "ops_applied") / max(batches, 1)
    m["service.publish_pause_mean_ms"] = 1e3 * _delta(
        after, before, "service", "publish_pause_total_s") \
        / max(publishes, 1)
    m["service.publish_pause_max_ms"] = \
        1e3 * after["service"]["publish_pause_max_s"]

    pool = after.get("pool")
    m["pool.delta_lag_p50_ms"] = \
        1e3 * after["lag"].get("p50_s", 0.0) if pool else 0.0
    m["pool.fallback_share"] = 0.0
    if pool:
        reads = _delta(after, before, "pool", "reads")
        m["pool.fallback_share"] = \
            _delta(after, before, "pool", "fallback_reads") / max(reads, 1)
    m["pool.compactions"] = pool["compactions"] if pool else 0.0
    m["replica.rss_mb"] = rss["workers"]
    for name, value in stages.items():
        if name != "setup_s":
            m[name] = value
    return m


def climb(server: Server, client, workload: str, world, workdir, plan,
          oracle, window, quick: bool, run, spans) -> Dict[str, float]:
    """The ladder, the leaves and the storage layers, on the child that
    just served the window."""
    m: Dict[str, float] = dict(server.write_path)
    rungs = ["wire", "service", "snapshot"]
    if workload == "write-mix":
        rungs.insert(1, "pool")
    per_rung = 4 if quick else SESSIONS_PER_RUNG[workload]
    block = per_rung // 2
    sequence = build_plan(world, workload, per_round=per_rung * len(rungs),
                          rounds=1, warmup=0, start=plan.end)
    # The oracle goes first (the reference evaluator takes
    # milliseconds and would sit between two timed requests), the
    # checks last; the timed loop only calls and records.
    steps = []
    for number, session in enumerate(sequence.rounds[0]):
        rung = rungs[number // block % len(rungs)]
        for request in session:
            wanted = oracle.expect(request)
            menu = oracle.menu_options(request[2]) \
                if request[0] == "menu" else None
            steps.append((rung, request, wanted, menu))
    clock = time.perf_counter
    probes = server.stats()["probe_counters"]
    results = []
    for rung, (kind, verb, argument), _wanted, _menu in steps:
        started = clock()
        if kind not in READ_KINDS or rung == "wire":
            answer = call_verb(client, verb, argument)
            results.append((answer, clock() - started, None, started))
        else:
            reply = server.command("read", rung=rung, kind=kind,
                                   verb=verb, text=argument)
            results.append((reply["answer"], reply["seconds"],
                            reply["menu"], started))
    counters = server.stats()["probe_counters"]
    # PROBE_COUNTERS of the child's own process: replica workers do not
    # export theirs, so on write-mix this is the menu cache as the
    # service and snapshot rungs (and fallback reads) met it.
    m["cache.menu_hit_rate"] = _rate(
        counters["menu_hits"] - probes["menu_hits"],
        counters["menu_misses"] - probes["menu_misses"])
    timings = {rung: {kind: [] for kind in READ_KINDS} for rung in rungs}
    texts = {kind: [] for kind in READ_KINDS}
    for (rung, request, wanted, menu), (answer, took, options, started) \
            in zip(steps, results):
        kind = request[0]
        if kind in READ_KINDS:
            timings[rung][kind].append(took)
            texts[kind].append(request[2])
            spans.append({"name": f"{rung}.{kind}", "parent": None,
                          "start": started, "end": started + took,
                          "request": len(spans)})
        # Below the wire the whole menu is visible, not only the wave
        # count: compare it option by option, in order.
        if options is not None and options != menu:
            answer = f"menu options {options!r}"
        run.attempted += 1
        if answer != wanted:
            run.failed += 1
            run.failures.append(f"ladder {rung} {request!r}: got"
                                f" {str(answer)[:160]!r}")

    def hop(upper: str, lower: str) -> float:
        """Mean over the four read verbs of p50(upper) − p50(lower)."""
        return 1e6 * sum(p50(timings[upper][k]) - p50(timings[lower][k])
                         for k in READ_KINDS) / len(READ_KINDS)

    m["net.hop_p50_us"] = hop("wire", rungs[1])
    m["pool.hop_p50_us"] = hop("pool", "service") if "pool" in rungs \
        else 0.0
    m["service.read_overhead_p50_us"] = hop("service", "snapshot")
    # The self times of a verb sum, by construction, to its wire rung.
    # What construction cannot promise is that the ladder's sessions
    # cost what the window's did: compare the wire rung with the client
    # latencies of the window (same child, same connection).
    seen = sum(p50(window.samples(k)) for k in READ_KINDS)
    m["trace.ladder_residual_pct"] = 100.0 * abs(
        seen - sum(p50(timings["wire"][k]) for k in READ_KINDS)) / seen
    for kind in READ_KINDS:
        run.notes.append(
            f"ladder {kind}: window {1e6 * p50(window.samples(kind)):.1f}"
            "us | " + "  ".join(
                f"{rung} {1e6 * p50(timings[rung][kind]):.1f}us"
                for rung in rungs))

    m.update(server.command(
        "leaves", texts={k: v[:per_rung] for k, v in texts.items()}))
    pristine = workdir / "db-pristine"
    pristine.mkdir()
    write_directory(world, pristine, workload)
    m.update(server.command("storage", pristine=str(pristine),
                            scratch=str(workdir / "scratch")))
    # Last, because these writes bypass the connection's floor.
    m["service.write_ack_p50_ms"] = 1e3 * server.command(
        "write_acks", triples=[[e, "KNOWS", world.extra[e]]
                               for e in world.hot[:3 if quick else 8]])
    return m
