#!/usr/bin/env python3
"""Alternating pairs of the macro benchmark on two trees, and the verdict.

    python tools/bench_pairs.py PARENT CHANGE --workload browse-cold \\
        --seeds 1-10 [--log runs.jsonl] [--claim setup_s]
    python tools/bench_pairs.py --summarize runs.jsonl [--claim setup_s]

PARENT and CHANGE are two checkouts (``git clone`` / ``git archive``)
whose ``benchmarks/macro/`` should be byte-identical.  For each seed
the tool runs ``benchmarks/macro/run.py --workload W --seed S --seconds
N --trace 0`` (N is ``BENCHMARK.json``'s ``run_seconds``) once in each
tree — each tree's own copy, from that tree — and swaps which side goes
first every pair, so a host that drifts during the session favours
neither.  Each run's last stdout line (the
object the benchmark prints for whoever reads it) is appended to
``--log`` with its side, seed and position.  ``--summarize`` reads such
logs back without running anything; it also reads the older pairs logs
under ``docs/measurements/`` (``pr{23,25,26,28}/runs.jsonl``), which
have the same shape.

It prints, per workload, one row per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, the shift of the
medians, the pairs the change won, and whether the change's median is
worse than the parent's by more than the metric's bound.  For every
``--claim`` metric it prints the standard verdict: the change is better
in at least 9 of 10 pairs (ties count for neither side) and the medians
are apart by more than the parent's inter-quartile range.  Compare
the printed shift with the percentage an issue asks for.

Run it alone: a test suite beside it moves the p50s by 20 % on a
2-core host.  Exits 1 if a run failed to produce a result or a claim
does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, TextIO, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: The share of pairs a claimed gain must win.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Spread:
    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Spread":
        median = statistics.median(values)
        if len(values) < 2:
            return cls(median, median, median)
        q1, _, q3 = statistics.quantiles(values, n=4)
        return cls(median, q1, q3)

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass(frozen=True)
class Verdict:
    """One metric over the pairs of one workload."""

    parent: Spread
    change: Spread
    wins: int
    pairs: int
    better: str
    bound: float

    @property
    def shift(self) -> float:
        """The change's median against the parent's, as a fraction."""
        if not self.parent.median:
            return 0.0
        return self.change.median / self.parent.median - 1

    @property
    def improved(self) -> float:
        """How far the median moved in the better direction (negative
        when it moved the other way)."""
        gap = self.parent.median - self.change.median
        return gap if self.better == "lower" else -gap

    @property
    def claim_holds(self) -> bool:
        """Better in ≥ 9 of 10 pairs, medians apart by more than the
        parent's IQR."""
        return (self.pairs > 0
                and self.wins >= WIN_SHARE * self.pairs
                and self.improved > self.parent.iqr)

    @property
    def within_bound(self) -> bool:
        """The change's median is not worse than the parent's by more
        than the benchmark's bound."""
        return -self.improved <= self.bound * abs(self.parent.median)


def verdict(parent: Sequence[float], change: Sequence[float], *,
            better: str = "lower", bound: float = 0.0) -> Verdict:
    """Judge paired values: ``parent[i]`` and ``change[i]`` are the
    two sides of pair ``i``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (> 0) of values per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    wins = sum((b < a) if better == "lower" else (b > a)
               for a, b in zip(parent, change))
    return Verdict(Spread.of(parent), Spread.of(change), wins,
                   len(parent), better, bound)


def parse_seeds(text: str) -> List[int]:
    """``"1-10"``, ``"11,12,13"`` or a mix (``"1-3,7"``)."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run of ``tree``'s own benchmark; its result
    object."""
    done = subprocess.run(
        [sys.executable, "benchmarks/macro/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{tree}: run.py --seed {seed} printed no result"
            f" (exit {done.returncode}):\n{done.stderr[-2000:]}") from None


def run_pairs(parent: Path, change: Path, workload: str,
              seeds: Iterable[int], seconds: float,
              log: TextIO = None) -> List[dict]:
    """Every pair, alternating which side runs first; the records."""
    records = []
    for index, seed in enumerate(seeds):
        sides = [("parent", parent), ("change", change)]
        if index % 2:
            sides.reverse()
        for position, (side, tree) in enumerate(sides):
            record = {"side": side, "workload": workload, "seed": seed,
                      "ran": "first" if position == 0 else "second",
                      "result": run_once(tree, workload, seed, seconds)}
            records.append(record)
            if log is not None:
                log.write(json.dumps(record) + "\n")
                log.flush()
        print(f"pair {index + 1} seed {seed}: {sides[0][0]} first",
              file=sys.stderr)
    return records


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def paired(records: Iterable[dict]) -> Dict[str, List[Tuple[dict, dict]]]:
    """``workload -> [(parent result, change result)]`` by seed, for
    the seeds both sides ran."""
    by_seed: Dict[str, Dict[int, dict]] = defaultdict(dict)
    for record in records:
        by_seed[record["workload"]].setdefault(
            record["seed"], {})[record["side"]] = record["result"]
    return {workload: [(sides["parent"], sides["change"])
                       for _, sides in sorted(seeds.items())
                       if {"parent", "change"} <= set(sides)]
            for workload, seeds in by_seed.items()}


def report(records: Iterable[dict], catalog: List[dict],
           claims: Sequence[str] = (),
           out: TextIO = None) -> bool:
    """Print the tables and verdicts (to ``out``, by default the
    current ``sys.stdout``); True when every claim holds."""
    out = sys.stdout if out is None else out
    ok = True
    for workload, pairs in paired(records).items():
        parents = [p for p, _ in pairs]
        changes = [c for _, c in pairs]
        out.write(f"\n## {workload}: {len(pairs)} alternating pairs\n\n")
        out.write(
            f"failed {sum(r['failed'] for r in parents)} /"
            f" {sum(r['failed'] for r in changes)} of"
            f" {sum(r['attempted'] for r in parents)} /"
            f" {sum(r['attempted'] for r in changes)} attempted (parent /"
            f" change); every answer correct:"
            f" {all(r['correct'] for r in parents + changes)}\n\n")
        out.write("| metric | parent median [q1..q3] |"
                  " change median [q1..q3] | shift | change better in |"
                  " bound | within bound |\n")
        out.write("|---|---|---|---|---|---|---|\n")
        verdicts = {}
        for row in catalog:
            name = row["name"]
            if not all(name in r["metrics"] for r in parents + changes):
                continue
            judged = verdicts[name] = verdict(
                [r["metrics"][name]["value"] for r in parents],
                [r["metrics"][name]["value"] for r in changes],
                better=row["better"], bound=row["bound"])
            a, b = judged.parent, judged.change
            out.write(
                f"| `{name}` | {a.median:.4g} [{a.q1:.4g}..{a.q3:.4g}] |"
                f" {b.median:.4g} [{b.q1:.4g}..{b.q3:.4g}] |"
                f" {100 * judged.shift:+.1f} % |"
                f" {judged.wins} of {judged.pairs} |"
                f" {100 * judged.bound:.0f} % ({judged.better}) |"
                f" {'yes' if judged.within_bound else 'NO'} |\n")
        for name in claims:
            judged = verdicts.get(name)
            if judged is None:
                out.write(f"\nclaim `{name}`: not measured\n")
                ok = False
                continue
            holds = judged.claim_holds
            ok = ok and holds
            out.write(
                f"\nclaim `{name}` ({judged.better} is better): better in"
                f" {judged.wins} of {judged.pairs} pairs (needs"
                f" ≥ {WIN_SHARE:.0%}); medians {judged.parent.median:.4g}"
                f" → {judged.change.median:.4g}"
                f" ({100 * judged.shift:+.1f} %), moved"
                f" {judged.improved:.4g} against the parent's IQR"
                f" {judged.parent.iqr:.4g}:"
                f" {'HOLDS' if holds else 'DOES NOT HOLD'}\n")
    return ok


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=parse_seeds,
                        help="e.g. 1-10, or 11,12,13")
    parser.add_argument("--log", type=Path,
                        help="append every run's record here (JSON lines)")
    parser.add_argument("--summarize", type=Path, nargs="+",
                        help="report on logged runs instead of running")
    parser.add_argument("--claim", action="append", default=[],
                        help="an end-to-end metric whose gain to judge")
    options = parser.parse_args(argv)

    benchmark = load_benchmark()
    if options.summarize:
        records = [json.loads(line) for path in options.summarize
                   for line in path.read_text(encoding="utf-8").splitlines()
                   if line.strip()]
    else:
        if not (options.parent and options.change and options.workload
                and options.seeds):
            parser.error("PARENT, CHANGE, --workload and --seeds are"
                         " required (or --summarize)")
        log = options.log.open("a", encoding="utf-8") \
            if options.log else None
        try:
            records = run_pairs(options.parent.resolve(),
                                options.change.resolve(), options.workload,
                                options.seeds, benchmark["run_seconds"],
                                log)
        finally:
            if log is not None:
                log.close()
    return 0 if report(records, benchmark["end_to_end"],
                       options.claim) else 1


if __name__ == "__main__":
    raise SystemExit(main())
