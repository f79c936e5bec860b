"""The wire side: the server child, one client connection, the window.

One closed-loop client on one TCP connection drives the child; every
timing is ``time.perf_counter()`` around one ``ServiceClient`` call,
taken raw (no host-speed calibration).  A window is a fixed list of
rounds; each round yields its own p50s and its own requests/s, and the
run reports the values of its quietest round.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.errors import ReproError
from repro.core.interned import unlink_generation
from repro.serve.net import ServiceClient

from world import Session

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
READ_KINDS = ("navigate", "probe", "menu", "query")
START_TIMEOUT = 120.0


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# ----------------------------------------------------------------------
# The child
# ----------------------------------------------------------------------
class Server:
    """A running server child and what it reported while starting."""

    def __init__(self, workload: str, directory: Path,
                 traced: bool = False):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload,
             str(directory), str(SRC), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        try:
            ready = self._read("ready")
        except BaseException:
            self.kill()
            raise
        self.port: int = ready["port"]
        self.marks: Dict[str, float] = ready["marks"]
        self.shape: Dict[str, int] = ready["shape"]
        #: master-level write-path timings (traced children only)
        self.write_path: Dict[str, float] = ready["write_path"]

    def _read(self, key: str) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self.process.wait()}"
                f" before sending {key!r}")
        return json.loads(line)[key]

    def command(self, name: str, **arguments):
        """Send one command line and return the child's reply."""
        self.process.stdin.write(
            json.dumps(dict(arguments, cmd=name)) + "\n")
        self.process.stdin.flush()
        return self._read(name)

    def stats(self) -> dict:
        return self.command("stats")

    def worker_pids(self) -> List[int]:
        """Replica workers: the child's forks (same command line; the
        multiprocessing resource tracker beside them is not one)."""
        pid = self.process.pid
        try:
            children = Path(f"/proc/{pid}/task/{pid}/children") \
                .read_text().split()
            return [int(c) for c in children
                    if b"child.py" in Path(f"/proc/{c}/cmdline")
                    .read_bytes()]
        except OSError:
            return []

    def peak_rss_mb(self) -> Dict[str, float]:
        """``VmHWM`` of the child and of each replica worker."""
        def hwm(pid: int) -> float:
            for line in Path(f"/proc/{pid}/status").read_text() \
                    .splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
            raise RuntimeError(f"no VmHWM for pid {pid}")
        workers = [hwm(pid) for pid in self.worker_pids()]
        return {"server": hwm(self.process.pid), "workers": sum(workers)}

    def stop(self) -> None:
        """Shut the child down and wait for it.  A child with replica
        workers closes in order (the pool unlinks its /dev/shm
        segments); one without has nothing to orphan and is killed,
        which saves ``socketserver``'s half-second shutdown poll."""
        if not self.worker_pids():
            self.kill()
            return
        self.process.stdin.write('{"cmd": "stop"}\n')
        self.process.stdin.close()
        code = self.process.wait(timeout=30)
        self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"server child exited with code {code}")

    def kill(self) -> None:
        """``SIGKILL`` the child and its replica workers, and wait."""
        if self.process.poll() is None:
            workers = self.worker_pids()
            self.process.kill()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.process.wait()
        # A killed pool cannot unlink its shared generations; they are
        # named after the pid that built them.
        for name in shm_segments():
            if name.startswith(f"repro-gen-{self.process.pid}-"):
                unlink_generation(name)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass


def call_verb(client: ServiceClient, verb: str, argument):
    """One request.  A typed error, refusal or timeout becomes the
    answer (and so a mismatch against the oracle)."""
    call = getattr(client, verb)
    try:
        if argument is None:
            return call()
        if isinstance(argument, tuple):
            return call(*argument)
        return call(argument)
    except (ReproError, OSError) as error:
        return error


def run_session(client: ServiceClient, session: Session,
                clock=time.perf_counter):
    """Issue one session; returns ``(answers, latencies)``."""
    answers, latencies = [], []
    for _kind, verb, argument in session:
        started = clock()
        answer = call_verb(client, verb, argument)
        latencies.append(clock() - started)
        answers.append(answer)
    return answers, latencies


def measure_setup(workload: str, directory: Path, session: Session,
                  expected: list, traced: bool = False):
    """Spawn the child on ``directory`` and time until the first
    session is answered correctly over TCP.  Returns ``(server, client,
    stages)`` — ``stages`` are contiguous, so they sum to ``setup_s``."""
    server = Server(workload, directory, traced)
    try:
        client = ServiceClient("127.0.0.1", server.port,
                               timeout=START_TIMEOUT)
        answers, _ = run_session(client, session)
        answered = time.perf_counter()
        if answers != expected:
            raise RuntimeError(f"{workload}: first session answered"
                               f" wrongly: {answers!r}")
    except BaseException:
        server.kill()
        raise
    m = server.marks
    stages = {
        "setup.spawn_s": m["imported"] - server.spawned,
        "setup.load_s": m["loaded"] - m["imported"],
        "setup.closure_s": m["closed"] - m["loaded"],
        "setup.compact_s": m["compacted"] - m["closed"],
        # (a traced child times the master's write path in between)
        "setup.service_s": m["service"] - m["measured"],
        "setup.pool_s": m["pool"] - m["service"],
        "setup.first_answer_s": answered - m["pool"],
        "setup_s": answered - server.spawned,
    }
    return server, client, stages


# ----------------------------------------------------------------------
# The window
# ----------------------------------------------------------------------
class Window:
    """Per-round results of one fixed-work window, and its checks."""

    def __init__(self):
        self.round_seconds: List[float] = []
        self.round_requests: List[int] = []
        #: latency class -> one list of latencies (seconds) per round;
        #: ``"session"`` holds whole-session latencies.
        self.by_kind: Dict[str, List[List[float]]] = {}
        # what the answers said, for the counts that repeat exactly
        self.menu_waves = 0
        self.menus = 0
        self.query_rows = 0
        self.queries = 0
        self.sessions = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def round_p50s(self, kind: str, scale: float) -> List[float]:
        """The per-round p50 of one latency class."""
        return [p50(r) * scale for r in self.by_kind.get(kind, []) if r]

    def throughput(self) -> List[float]:
        return [n / s for n, s in zip(self.round_requests,
                                      self.round_seconds)]

    def samples(self, kind: str) -> List[float]:
        return [v for r in self.by_kind.get(kind, []) for v in r]

    def check(self, sessions, expected, collected,
              timed: bool = True) -> None:
        """Compare every answer with the oracle's (untimed, between
        rounds) and file the round's latencies by class."""
        self.sessions += len(sessions)
        per_kind: Dict[str, List[float]] = {"session": []}
        for session, want, (answers, latencies, whole, traced) in zip(
                sessions, expected, collected):
            per_kind["session"].append(whole)
            per_kind.setdefault("session.traced" if traced
                                else "session.plain", []).append(whole)
            for request, wanted, answer, took in zip(
                    session, want, answers, latencies):
                kind = request[0]
                self.attempted += 1
                if answer != wanted:
                    self.failed += 1
                    if len(self.failures) < 5:
                        self.failures.append(
                            f"{request!r}: got {str(answer)[:160]!r},"
                            f" want {str(wanted)[:160]!r}")
                elif kind == "menu":
                    self.menus += 1
                    self.menu_waves += answer["waves"]
                elif kind == "query":
                    self.queries += 1
                    self.query_rows += len(answer)
                per_kind.setdefault(kind, []).append(took)
        if timed:
            for kind, values in per_kind.items():
                self.by_kind.setdefault(kind, []).append(values)


def run_round(client: ServiceClient, sessions: Sequence[Session],
              expected: Sequence[list], window: Window,
              spans: Optional[list] = None, timed: bool = True) -> None:
    """One round: issue every session back to back, then check.

    With ``spans`` every other block of four sessions is *traced*: one
    span per request, parented on its session's span, kept in memory
    until the run ends.  The untraced blocks of the same rounds are the
    baseline the tracing overhead is measured against."""
    clock = time.perf_counter
    collected = []
    started = clock()
    for number, session in enumerate(sessions, window.sessions):
        traced = spans is not None and number // 4 % 2 == 1
        t0 = clock()
        answers, latencies = run_session(client, session)
        t1 = clock()
        if traced:
            parent = len(spans)
            spans.append({"name": "client.session", "start": t0,
                          "end": t1, "parent": None, "request": parent})
            at = t0
            for request, took in zip(session, latencies):
                spans.append({"name": f"client.{request[0]}",
                              "start": at, "end": at + took,
                              "parent": parent, "request": parent})
                at += took
        collected.append((answers, latencies, t1 - t0, traced))
    elapsed = clock() - started
    if timed:
        window.round_seconds.append(elapsed)
        window.round_requests.append(sum(len(s) for s in sessions))
    window.check(sessions, expected, collected, timed)


# ----------------------------------------------------------------------
# Host hygiene
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> Optional[int]:
    """Pin this process — and so every child and replica worker it
    starts — to one CPU.  A single closed-loop client is strict
    ping-pong, so one CPU loses nothing and removes the cross-CPU
    wake-up from every request."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
        return allowed[-1]
    except (AttributeError, OSError):
        return None


def steal_ticks() -> int:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def host_facts(cpu: Optional[int]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "server_PYTHONHASHSEED": "0",
    }


def shm_segments() -> set:
    """The shared generations replica pools have in /dev/shm."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro-gen-")}
    except OSError:
        return set()
