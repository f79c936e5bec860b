#!/usr/bin/env python3
"""Macro benchmark: fixed-work browsing sessions through every layer.

    python3 benchmarks/macro/run.py --workload browse-hot --seed 1 \\
        --seconds 10 --trace 0          # end-to-end metrics
    python3 benchmarks/macro/run.py --workload browse-hot --seed 1 \\
        --seconds 10 --trace 1          # per-layer metrics
    python3 benchmarks/macro/run.py --quick            # all four, tiny
    python3 benchmarks/macro/run.py --repeat-check     # noise floor

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / ".out"
#: Servers per run: each is set up from a fresh directory, timed, and
#: serves a third of the window.
SERVERS_PER_RUN = 3
UNSTEADY_IQR_SHARE = 0.08

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"macro benchmark: {SRC}/repro is missing — run from a"
             " checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import ladder  # noqa: E402
import wire  # noqa: E402
from oracle import Oracle  # noqa: E402
from wire import p50, quartiles  # noqa: E402
from world import (  # noqa: E402
    ROUNDS, WORKLOADS, build_plan, build_world, probe_session,
    sessions_per_round, write_directory,
)


def load_catalog() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    """Everything one ``--workload/--seed`` invocation produces."""

    def __init__(self):
        self.metrics: dict = {}        # name -> value
        self.spread: dict = {}         # name -> (median, q1, q3, n)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.host: dict = {}
        self.exact: dict = {}          # counts that must repeat exactly
        self.unsteady = False
        self.notes: list = []


def verify_restart(server, delta, run: Run) -> float:
    """ingest-recover's durability check.  The serving child was killed
    with ``SIGKILL``; ``server`` is a fresh child started from the
    directory alone.  Every acknowledged add must be present and every
    acknowledged remove absent.  Returns spawn → first answer."""
    added, removed = delta
    client = wire.ServiceClient("127.0.0.1", server.port,
                                timeout=wire.START_TIMEOUT)
    recovered = None
    for facts, wanted in ((added, True), (removed, False)):
        for fact in sorted(facts):
            answer = client.ask("({}, {}, {})".format(*fact))
            if recovered is None:
                recovered = time.perf_counter() - server.spawned
            run.attempted += 1
            if answer is not wanted:
                run.failed += 1
                run.failures.append(
                    f"after SIGKILL and restart {tuple(fact)!r} is"
                    f" {'absent' if wanted else 'present'}")
    client.close()
    return recovered


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool = False) -> Run:
    run = Run()
    cpu = wire.pin_to_one_cpu()
    run.host = wire.host_facts(cpu)
    shm_before = wire.shm_segments()
    workdir = WORK / f"{os.getpid()}-{workload}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    servers: list = []
    try:
        _run_in(workdir, servers, run, workload, seed, seconds, trace,
                quick)
    finally:
        # Also the way out of a failed run: no child, no temporary
        # directory and no /dev/shm segment may outlive it.
        for server in servers:
            server.kill()
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    leaked = sorted(wire.shm_segments() - shm_before)
    if leaked:
        run.failed += 1
        run.failures.append(f"/dev/shm segments left behind: {leaked}")
    return run


def _run_in(workdir: Path, servers: list, run: Run, workload: str,
            seed: int, seconds: float, trace: bool, quick: bool) -> None:
    world = build_world(seed, workload, quick)
    # A traced run only needs counts and the client rung from its
    # window: one server and a third of the rounds leave time for the
    # ladder.  --quick is a smoke test.
    incarnations = 1 if (quick or trace) else SERVERS_PER_RUN
    rounds = 3 if quick else ROUNDS // SERVERS_PER_RUN * incarnations
    share = rounds // incarnations
    per_round = 4 if quick else sessions_per_round(workload, seconds)
    plan = build_plan(world, workload, per_round, rounds,
                      warmup=4 if quick else -1)

    # -- the oracle first: every answer the run must get ---------------
    oracle = Oracle(world)
    first = probe_session(world)
    first_expected = [oracle.expect(r) for r in first]
    expected, deltas = [], []
    for k in range(incarnations):
        oracle.reset()      # every server starts from the world
        expected.append((
            oracle.expect_all(plan.warmup),
            [oracle.expect_all(r)
             for r in plan.rounds[k * share:(k + 1) * share]]))
        deltas.append(oracle.heap_delta())
    gc.collect()
    gc.freeze()     # the oracle's heap never needs another full scan

    # -- one third of the window on each of three servers --------------
    setups, peaks, recoveries = [], [], []
    window = wire.Window()
    spans: list = []
    steal = wire.steal_ticks()
    for k in range(incarnations):
        directory = workdir / f"db{k}"
        directory.mkdir()
        write_directory(world, directory, workload)
        server, client, stages = wire.measure_setup(
            workload, directory, first, first_expected, traced=trace)
        servers.append(server)
        setups.append(stages)
        warm_expected, round_expected = expected[k]
        wire.run_round(client, plan.warmup, warm_expected, window,
                       timed=False)
        before = server.stats() if trace else None
        for sessions, wanted in zip(
                plan.rounds[k * share:(k + 1) * share], round_expected):
            wire.run_round(client, sessions, wanted, window,
                           spans if trace else None)
        rss = server.peak_rss_mb()
        peaks.append(rss["server"] + rss["workers"])
        if k == 0:
            run.exact["world.base_facts"] = server.shape["base_facts"]
            run.exact["world.closure_facts"] = \
                server.shape["closure_facts"]
        if trace:
            _window_counts(run, window, plan)
            run.metrics.update(ladder.from_the_window(
                plan, round_expected, window, stages, rss, before,
                server.stats(), run))
            run.metrics.update(ladder.climb(
                server, client, workload, world, workdir, plan, oracle,
                window, quick, run, spans))
            deltas[k] = oracle.heap_delta()
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{workload}-{seed}.json").write_text(
                json.dumps({"spans": spans}))
        client.close()
        if workload == "ingest-recover":
            # The durability check: SIGKILL, restart from the directory
            # alone, every acknowledged write accounted for.
            server.kill()
            servers.remove(server)
            server = wire.Server(workload, directory)
            servers.append(server)
            recoveries.append(
                verify_restart(server, deltas[k], run))
        server.stop()
        servers.remove(server)
    run.host["steal_ticks_in_window"] = wire.steal_ticks() - steal
    run.host["loadavg_after"] = list(os.getloadavg())
    run.attempted += window.attempted
    run.failed += window.failed
    run.failures += window.failures
    _window_counts(run, window, plan)
    run.exact["oracle.evaluations"] = oracle.evaluations

    # -- end-to-end metrics ---------------------------------------------
    # Every round gives one value per metric (a p50 over the round's
    # requests, or the round's requests/s).  The run reports the value
    # of its *quietest* round: interference only ever adds time, and
    # on this class of host whole stretches of a run are disturbed, so
    # the best of 21 rounds repeats about twice as well as their median
    # (printed beside it, with the quartiles).
    def reduce(name, values, best=min):
        run.metrics[name] = best(values)
        run.spread[name] = (p50(values),) + quartiles(values) \
            + (len(values),)

    reduce("requests_per_s", window.throughput(), best=max)
    reduce("session_p50_ms", window.round_p50s("session", 1e3))
    for kind in wire.READ_KINDS:
        reduce(f"{kind}_p50_us", window.round_p50s(kind, 1e6))
    values = [s["setup_s"] for s in setups]
    run.metrics["setup_s"] = p50(values)
    run.spread["setup_s"] = (p50(values), min(values), max(values),
                             len(values))
    run.metrics["peak_rss_mb"] = p50(peaks)
    run.metrics["session.recover_s"] = p50(recoveries) if recoveries \
        else 0.0
    middle, q1, q3, _n = run.spread["session_p50_ms"]
    run.unsteady = (q3 - q1) > UNSTEADY_IQR_SHARE * middle
    others = sorted(set(window.by_kind) - set(wire.READ_KINDS)
                    - {"session", "session.traced", "session.plain"})
    if others:
        run.notes.append("p50 of the other requests (not gated): "
                         + ", ".join(
                             f"{kind} {1e3 * p50(window.samples(kind)):.2f}"
                             f" ms over {len(window.samples(kind))}"
                             for kind in others))


def _window_counts(run: Run, window, plan) -> None:
    """What the answers said: counts that repeat exactly."""
    run.exact["client.requests"] = sum(window.round_requests)
    run.exact["client.sessions_per_round"] = len(plan.rounds[0])
    run.exact["retraction.waves_per_menu"] = \
        window.menu_waves / max(window.menus, 1)
    run.exact["exec.rows_per_query"] = \
        window.query_rows / max(window.queries, 1)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def report(run: Run, workload: str, seed: int, trace: bool,
           catalog: dict) -> dict:
    """Print every metric by name with its unit; returns the result
    object (also printed, by the caller, as the last line)."""
    declared = catalog["per_layer" if trace else "end_to_end"]
    print(f"== {workload}  seed {seed}  "
          f"{'per-layer (traced)' if trace else 'end-to-end'} ==")
    host = run.host
    print("host: nproc={nproc} pinned_cpu={pinned_cpu} loadavg={loadavg}"
          " steal_ticks={steal_ticks_in_window} python={python}"
          " server_PYTHONHASHSEED={server_PYTHONHASHSEED}".format(**host))
    metrics = {}
    missing = []
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        if name not in run.metrics:
            missing.append(name)
            continue
        value = run.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        line = f"  {name:34s} {value:14.4f} {unit}"
        if name in run.spread:
            middle, low, high, n = run.spread[name]
            line += (f"   median {middle:.4f}"
                     f" [{low:.4f} .. {high:.4f}] over {n}")
        print(line)
    for name, value in sorted(run.exact.items()):
        print(f"  exact {name} = {value}")
    share = run.failed / max(run.attempted, 1)
    print(f"  attempted={run.attempted} failed={run.failed}"
          f" failed_share={share:.6f}"
          f" unsteady={'yes' if run.unsteady else 'no'}")
    for note in run.notes:
        print(f"  note: {note}")
    for failure in run.failures[:10]:
        print(f"  FAILED: {failure}")
    if missing:
        print(f"  NOT MEASURED: {', '.join(missing)}")
    # This benchmark defines the baseline; it claims no gain.
    print("  summary " + json.dumps(
        {"workload": workload, "seed": seed, "traced": trace,
         "failed": run.failed, "unsteady": run.unsteady, "claim": None}))
    return {"correct": run.failed == 0 and not missing,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="all four workloads, tiny counts, traced"
                             " and untraced (the smoke test)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two back-to-back sets of --runs untraced"
                             " runs per workload; the noise-floor table")
    parser.add_argument("--runs", type=int, default=5)
    options = parser.parse_args(argv)
    catalog = load_catalog()
    seconds = options.seconds if options.seconds is not None \
        else catalog["run_seconds"]

    if options.repeat_check:
        import repeat

        return repeat.main(catalog, seconds, options.runs,
                           [options.workload] if options.workload
                           else list(WORKLOADS), options.seed)
    if options.quick:
        ok = True
        result = None
        for workload in WORKLOADS:
            for trace in (False, True):
                run = run_once(workload, options.seed, seconds, trace,
                               quick=True)
                result = report(run, workload, options.seed, trace,
                                catalog)
                ok = ok and result["correct"]
        print(json.dumps(result))
        return 0 if ok else 1
    if options.workload is None:
        parser.error("--workload is required (or --quick,"
                     " --repeat-check)")
    run = run_once(options.workload, options.seed, seconds,
                   bool(options.trace))
    result = report(run, options.workload, options.seed,
                    bool(options.trace), catalog)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
