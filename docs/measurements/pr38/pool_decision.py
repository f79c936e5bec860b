"""Does a replica worker beat queueing on the primary?  The pool's
decision data: closed-loop TCP clients against ``serve --workers N``.

    python docs/measurements/pr38/pool_decision.py [OUT.jsonl]
        [--rounds 3] [--seconds 5] [--clients 1,4,16] [--workers 0,1,2]
        [--workloads browse-cold,write-mix] [--seed 1]

For each round, workload, worker count (the worker order alternates
from round to round) and client count, the script writes the
workload's durable directory with ``benchmarks/macro/world.py``
(imported, not edited), starts ``python -m repro.shell serve DIR
--workers N --port 0`` as a child, warms it with one client
(``WARMUP_SESSIONS``), and runs a separate client process: that many
threads, each with its own ``ServiceClient`` connection, issuing the
workload's sessions back to back for ``--seconds``.  Each cell gets its
own server and session numbers never repeat on it, so browse-cold
stays cold for the net layer's answer memo too (keep ``--seconds``
short enough that a cell stays under the world's 5 000 employees).

One JSON row per (round, workload, workers, clients): sessions, the
session latency p50 / p99 (ms, one session = its requests in a row on
one connection), sessions per second, and the server's ``pool.stats()``
read counters over the window (``reads``, ``primary_reads``,
``fallback_reads``, and the rest — ``replica_reads`` — which a worker
answered; all 0 without a pool).  The summary printed at the end is the
median of the rounds per cell.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
SRC = ROOT / "src"
MACRO = ROOT / "benchmarks" / "macro"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(MACRO))

import world as macro_world  # noqa: E402  (benchmarks/macro/world.py)
from wire import call_verb  # noqa: E402

from repro.serve.net import ServiceClient  # noqa: E402

READ_COUNTERS = ("reads", "primary_reads", "fallback_reads")


def _environment() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


# ----------------------------------------------------------------------
# The client process
# ----------------------------------------------------------------------
def client_main(port: int, workload: str, threads: int, seconds: float,
                start: int, seed: int, sessions: int) -> None:
    """Run ``threads`` closed-loop clients; print one JSON document.

    With ``sessions`` > 0 every thread runs that many sessions (the
    warm-up); otherwise each runs sessions until ``seconds`` pass."""
    world = macro_world.build_world(seed, workload)
    latencies = [[] for _ in range(threads)]
    errors = []
    barrier = threading.Barrier(threads + 1)

    def loop(slot: int) -> None:
        try:
            with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
                barrier.wait()
                stop_at = time.perf_counter() + seconds
                index = start + slot
                done = 0
                while (done < sessions if sessions > 0
                       else time.perf_counter() < stop_at):
                    session = macro_world.session_at(world, workload, index)
                    began = time.perf_counter()
                    for _kind, verb, argument in session:
                        call_verb(client, verb, argument)
                    latencies[slot].append(time.perf_counter() - began)
                    index += threads
                    done += 1
        except Exception as error:  # reported in the output
            errors.append(repr(error))
            barrier.abort()

    workers = [threading.Thread(target=loop, args=(slot,), daemon=True)
               for slot in range(threads)]
    for thread in workers:
        thread.start()
    barrier.wait()
    began = time.perf_counter()
    for thread in workers:
        thread.join()
    wall = time.perf_counter() - began
    print(json.dumps({"latencies": [x for row in latencies for x in row],
                      "wall": wall, "errors": errors}))


def run_client(port: int, workload: str, threads: int, seconds: float,
               start: int, seed: int, sessions: int = 0) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--client",
               str(port), workload, str(threads), str(seconds), str(start),
               str(seed), str(sessions)]
    done = subprocess.run(command, env=_environment(), capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.shell serve DIR --workers N --port 0``."""

    def __init__(self, directory: Path, workers: int):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.shell", "serve", str(directory),
             "--workers", str(workers), "--port", "0"],
            env=_environment(), stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split(" on ")[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def pool_reads(self) -> dict:
        with ServiceClient("127.0.0.1", self.port, timeout=120.0) as client:
            pool = client.stats().get("pool") or {}
        return {name: pool.get(name, 0) for name in READ_COUNTERS}

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(2)     # SIGINT: a clean close
            try:
                self.process.wait(60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def measure_cell(world, workload: str, workers: int, threads: int,
                 options) -> dict:
    """One server, warmed, then one timed client run: a server serves
    one cell, so no session number repeats on it and the net layer's
    per-snapshot answer memo never answers one from an earlier run."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "db"
        directory.mkdir()
        macro_world.write_directory(world, directory, workload)
        server = Server(directory, workers)
        try:
            warmup = macro_world.WARMUP_SESSIONS[workload]
            run_client(server.port, workload, 1, 0.0, 0, options.seed,
                       sessions=warmup)
            before = server.pool_reads()
            result = run_client(server.port, workload, threads,
                                options.seconds, warmup, options.seed)
            after = server.pool_reads()
        finally:
            server.stop()
    latencies = result["latencies"]
    reads = {name: after[name] - before[name] for name in READ_COUNTERS}
    reads["replica_reads"] = (reads["reads"] - reads["primary_reads"]
                              - reads["fallback_reads"])
    return {
        "workload": workload, "workers": workers, "clients": threads,
        "sessions": len(latencies),
        "sessions_per_s": round(len(latencies) / result["wall"], 2),
        "session_p50_ms": round(1e3 * percentile(latencies, 0.50), 3),
        "session_p99_ms": round(1e3 * percentile(latencies, 0.99), 3),
        "errors": result["errors"],
        **reads,
    }


def measure(options) -> list:
    rows = []
    worker_counts = [int(w) for w in options.workers.split(",")]
    clients = [int(c) for c in options.clients.split(",")]
    for round_index in range(1, options.rounds + 1):
        order = worker_counts if round_index % 2 else worker_counts[::-1]
        for workload in options.workloads.split(","):
            world = macro_world.build_world(options.seed, workload)
            for workers in order:
                for threads in clients:
                    row = measure_cell(world, workload, workers, threads,
                                       options)
                    row["round"] = round_index
                    rows.append(row)
                    print(json.dumps(row), flush=True)
    return rows


def summarize(rows) -> str:
    cells = {}
    for row in rows:
        key = (row["workload"], row["clients"], row["workers"])
        cells.setdefault(key, []).append(row)
    lines = ["workload     clients workers  p50_ms  p99_ms  sess/s"
             "  reads primary fallback replica"]
    for (workload, clients, workers), group in sorted(cells.items()):
        def median(name):
            return statistics.median(row[name] for row in group)
        lines.append(
            f"{workload:<12} {clients:>7} {workers:>7} "
            f"{median('session_p50_ms'):>7.2f}"
            f" {median('session_p99_ms'):>7.2f}"
            f" {median('sessions_per_s'):>7.1f} {median('reads'):>6.0f}"
            f" {median('primary_reads'):>7.0f}"
            f" {median('fallback_reads'):>8.0f}"
            f" {median('replica_reads'):>7.0f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--client":
        port, workload, threads, seconds, start, seed, sessions = argv[1:]
        client_main(int(port), workload, int(threads), float(seconds),
                    int(start), int(seed), int(sessions))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default=None,
                        help="append the JSON rows to this file")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--clients", default="1,4,16")
    parser.add_argument("--workers", default="0,1,2")
    parser.add_argument("--workloads", default="browse-cold,write-mix")
    parser.add_argument("--seed", type=int, default=1)
    options = parser.parse_args(argv)
    rows = measure(options)
    if options.out:
        with open(options.out, "a", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
    print(summarize(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
