"""Measurement helpers shared by the benchmark modules.

pytest-benchmark drives the timed loops; these helpers cover what it
does not: parameter sweeps that produce the paper-style tables/series,
and simple wall-clock measurement for one-shot shape checks inside
benchmark files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Measurement:
    """One timed run, optionally with obs counters beside the seconds."""

    label: str
    seconds: float
    metrics: Dict[str, object] = field(default_factory=dict)


def timed(function: Callable[[], object], repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds for ``function()``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        function()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


def measure(label: str, function: Callable[[], object], repeat: int = 3,
            observe: bool = True,
            counter_prefixes: Optional[Sequence[str]] = None) -> Measurement:
    """Time a function *and* explain it: best-of-``repeat`` untraced
    wall clock plus telemetry counters from one extra traced run (the
    F2 benchmark's cells).

    The timing runs are never traced, so the seconds are comparable to
    plain :func:`timed`; the counters (rule firings, facts scanned,
    index lookups, …) come from a separate observed run and land in
    ``Measurement.metrics``, making a benchmark trajectory explain *why*
    a number moved, not just that it did.  ``counter_prefixes`` filters
    the attached counters (default: all of them).
    """
    seconds = timed(function, repeat=repeat)
    metrics: Dict[str, object] = {}
    if observe:
        from ..obs import Telemetry, use_telemetry

        with use_telemetry(Telemetry()) as telemetry:
            function()
        observed = dict(sorted(telemetry.counters.items()))
        observed.update((name, gauge.last) for name, gauge
                        in sorted(telemetry.gauges.items()))
        for name, value in observed.items():
            if counter_prefixes is None or any(
                    name.startswith(prefix) for prefix in counter_prefixes):
                metrics[name] = value
    return Measurement(label=label, seconds=seconds, metrics=metrics)


def rss_mb(pid: Optional[int] = None) -> Optional[float]:
    """Resident set size of a process in MiB, or ``None`` off-Linux.

    Reads ``/proc/<pid>/status`` so it works for *other* processes —
    the replica benchmarks sample their worker PIDs to attribute
    memory per process.  For the calling process, falls back to
    ``resource.getrusage`` where procfs is unavailable.
    """
    import os

    target = os.getpid() if pid is None else pid
    value = _proc_status_kb(target, "VmRSS")
    if value is not None:
        return round(value / 1024.0, 2)
    if pid is None or pid == os.getpid():
        try:
            import resource

            usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # Linux reports KiB, macOS bytes; procfs already covered
            # Linux, so bytes it is.
            return round(usage / (1024.0 * 1024.0), 2)
        except (ImportError, ValueError, OSError):
            return None
    return None


def rss_anon_mb(pid: Optional[int] = None) -> Optional[float]:
    """Anonymous (private, non-shared) resident memory in MiB (the F12
    benchmark's replica column).

    This is the column that distinguishes a replica that *copied* the
    fact heap (the copy is anonymous memory, counted here per process)
    from one that *attached* a generation file in ``/dev/shm`` (the
    columns are ``RssShmem`` — one set of physical pages no matter how
    many workers map them).  ``None`` when the kernel does not break RSS
    down (pre-4.5 Linux, non-Linux).
    """
    import os

    value = _proc_status_kb(os.getpid() if pid is None else pid,
                            "RssAnon")
    return None if value is None else round(value / 1024.0, 2)


def _proc_status_kb(pid: int, key: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def host_metadata() -> Dict[str, object]:
    """The host facts needed to interpret a committed benchmark number.

    Scaling results in particular are meaningless without the core
    count they ran on (a replica pool cannot show a 4-worker speedup
    on a 1-core container), so every ``write_bench_json`` document
    embeds this.
    """
    import os
    import platform

    metadata: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.system(),
        "machine": platform.machine(),
    }
    try:
        metadata["load_avg_1m"] = round(os.getloadavg()[0], 3)
    except (AttributeError, OSError):
        pass
    sampled = rss_mb()
    if sampled is not None:
        metadata["rss_mb"] = sampled
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and page_size > 0:
            metadata["total_memory_bytes"] = pages * page_size
    except (AttributeError, ValueError, OSError):
        pass
    return metadata


def write_bench_json(path: str, benchmark: str,
                     rows: Sequence[Dict[str, object]],
                     summary: Optional[Dict[str, object]] = None,
                     config: Optional[Dict[str, object]] = None,
                     metrics: Optional[Dict[str, object]] = None) -> dict:
    """Persist a benchmark result matrix as a JSON document.

    ``rows`` is the flat result matrix (one dict per measured cell —
    e.g. engine × dataset × limit); ``summary`` holds the headline
    numbers a trajectory tracker reads without joining the matrix;
    ``config`` records how the run was parameterized; ``metrics`` is an
    optional :meth:`~repro.obs.telemetry.Telemetry.snapshot` taken
    during an observed pass, stamped alongside the timings so committed
    numbers carry their own telemetry.  Host metadata (core count,
    Python version, platform, load, memory) is stamped automatically so
    committed numbers stay interpretable.  Returns the document
    written, for callers that also want to print it.
    """
    document: Dict[str, object] = {"benchmark": benchmark}
    document["host"] = host_metadata()
    if config:
        document["config"] = dict(config)
    document["results"] = [dict(row) for row in rows]
    if summary:
        document["summary"] = dict(summary)
    if metrics:
        document["metrics"] = dict(metrics)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return document


@dataclass
class Sweep:
    """A parameter sweep producing one row per parameter value."""

    name: str
    parameter: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, value: object, **metrics: object) -> None:
        row: Dict[str, object] = {self.parameter: value}
        row.update(metrics)
        self.rows.append(row)

    def columns(self) -> List[str]:
        columns: List[str] = [self.parameter]
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def series(self, metric: str) -> List[Tuple[object, object]]:
        """(parameter, metric) pairs — one plotted line."""
        return [(row[self.parameter], row.get(metric)) for row in self.rows]
