"""Benchmark harness: sweeps, timing, and text reporting.

Shared plumbing for ``benchmarks/``: best-of-N timing
(:func:`~repro.benchio.harness.timed`), measurements that attach obs
counters from a separately observed run
(:func:`~repro.benchio.harness.measure`), parameter sweeps,
fixed-width table printing, and the ``BENCH_*.json`` document writer
(:func:`~repro.benchio.harness.write_bench_json`).

Example::

    from repro.benchio import timed

    seconds = timed(lambda: sum(range(1000)), repeat=3)
    assert seconds > 0.0
"""

from .harness import (Measurement, Sweep, host_metadata, measure,
                      rss_anon_mb, rss_mb, timed, write_bench_json)
from .reporting import format_sweep, format_table, format_value, print_sweep

__all__ = ["Measurement", "Sweep", "measure", "timed", "write_bench_json",
           "host_metadata", "rss_mb", "rss_anon_mb",
           "format_sweep", "format_table", "format_value", "print_sweep"]
