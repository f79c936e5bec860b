#!/usr/bin/env python3
"""Compare two BENCH_*.json documents cell by cell.

Joins the result matrices of a baseline and a candidate document on
their identifying columns (``mode`` plus whichever of ``threads`` /
``workers`` / ``client_threads`` the row carries), then reports the
relative change in throughput (``ops_per_second``), tail latency
(``p50_us`` / ``p95_us`` / ``p99_us``), and memory
(``worker_rss_mb`` / ``worker_rss_anon_mb`` / ``bootstrap_seconds``)
per matched cell.

    python tools/bench_compare.py BENCH_serving.json /tmp/new.json
    python tools/bench_compare.py old.json new.json --fail-above 10

``--fail-above PCT`` exits non-zero when any matched cell's throughput
slowed down by more than PCT percent — the CI guardrail against a
telemetry change quietly taxing the serving path.  The slowdown is
``before/after − 1``: unbounded, like a latency increase, so 100 means
half the throughput and 200 a third of it.  (The printed per-cell
deltas stay plain relative changes, where a throughput loss can never
read below −100 %.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

#: Row fields that identify a cell (as opposed to measuring it).
KEY_FIELDS = ("mode", "threads", "workers", "client_threads", "writes",
              "bootstrap", "facts", "engine", "workload", "shape",
              "dataset", "limit")

#: Measured fields worth diffing, with their improvement direction.
METRIC_FIELDS = (
    ("ops_per_second", "higher"),
    ("p50_us", "lower"),
    ("p95_us", "lower"),
    ("p99_us", "lower"),
    ("bootstrap_seconds", "lower"),
    ("worker_rss_mb", "lower"),
    ("worker_rss_anon_mb", "lower"),
    ("seconds", "lower"),
)


def load_rows(path: str) -> Tuple[str, List[Dict[str, object]]]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return document.get("benchmark", path), document.get("results", [])


def row_key(row: Dict[str, object]) -> Tuple:
    return tuple((field, row[field]) for field in KEY_FIELDS
                 if field in row)


def percent_change(before: float, after: float) -> Optional[float]:
    if not isinstance(before, (int, float)) or not before:
        return None
    if not isinstance(after, (int, float)):
        return None
    return 100.0 * (after - before) / before


def slowdown_percent(before: float, after: float) -> float:
    """How much longer the same work takes at throughput ``after``
    than it did at ``before``, in percent (4× slower → 300)."""
    if after <= 0:
        return float("inf")
    return 100.0 * (before / after - 1.0)


def compare(baseline_path: str, candidate_path: str,
            fail_above: Optional[float] = None,
            out=sys.stdout) -> int:
    baseline_name, baseline_rows = load_rows(baseline_path)
    candidate_name, candidate_rows = load_rows(candidate_path)
    out.write(f"baseline:  {baseline_path} ({baseline_name},"
              f" {len(baseline_rows)} cells)\n")
    out.write(f"candidate: {candidate_path} ({candidate_name},"
              f" {len(candidate_rows)} cells)\n")

    baseline_index = {row_key(row): row for row in baseline_rows}
    matched = 0
    worst_regression = 0.0
    worst_cell = None
    for row in candidate_rows:
        key = row_key(row)
        before = baseline_index.get(key)
        if before is None:
            out.write(f"  new cell (no baseline): {dict(key)}\n")
            continue
        matched += 1
        label = " ".join(f"{field}={value}" for field, value in key)
        deltas = []
        for field, direction in METRIC_FIELDS:
            change = percent_change(before.get(field), row.get(field))
            if change is None:
                continue
            marker = ""
            regressed = (change < 0 if direction == "higher"
                         else change > 0)
            if abs(change) >= 2.0 and regressed:
                marker = " (worse)"
            deltas.append(f"{field} {change:+.1f}%{marker}")
            if field == "ops_per_second" and regressed:
                slowdown = slowdown_percent(before[field], row[field])
                if slowdown > worst_regression:
                    worst_regression = slowdown
                    worst_cell = label
        out.write(f"  {label}: {', '.join(deltas) or 'no shared metrics'}\n")

    unmatched = len(baseline_index) - matched
    if unmatched:
        out.write(f"  {unmatched} baseline cell(s) missing from"
                  " candidate\n")
    out.write(f"matched {matched} cell(s); worst throughput slowdown"
              f" {worst_regression:.1f}%"
              + (f" ({worst_cell})" if worst_cell else "") + "\n")
    if fail_above is not None and worst_regression > fail_above:
        out.write(f"FAIL: {worst_regression:.1f}% >"
                  f" --fail-above {fail_above}%\n")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff throughput and latency percentiles between"
                    " two BENCH_*.json documents.")
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument("--fail-above", type=float, default=None,
                        metavar="PCT",
                        help="exit 1 if any cell's ops/s slowed down by"
                             " more than PCT percent (before/after - 1:"
                             " 200 = three times slower)")
    options = parser.parse_args(argv)
    return compare(options.baseline, options.candidate,
                   fail_above=options.fail_above)


if __name__ == "__main__":
    sys.exit(main())
