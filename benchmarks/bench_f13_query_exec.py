"""F13 — query execution: compiled set-at-a-time vs reference engine.

The compiled executor (:mod:`repro.query.compile` +
:mod:`repro.query.exec`) replaces the reference engine's per-binding
dict allocations with batch operators over binding tables.  This bench
runs both engines — same view, no result cache, each with its own
:class:`~repro.query.plancache.PlanCache` — over the E4 paper queries
on the book world, multi-conjunct joins on the employee workload,
navigation-star shapes, and a probe (``succeeds``) workload, verifying
answer-for-answer agreement while timing the difference.

Methodology: queries are passed as *text*, the production entry point.
Parse + plan costs are paid once into the warm plan cache (every cell
is preceded by a correctness check, which warms it), so the timed path
is what a repeated query pays below the result cache: a plan-cache
hit plus one plan execution.

Run as a script to emit ``BENCH_queries.json`` (the engine × workload
× shape matrix, with the compiled engine's per-operator plan stats —
estimated vs actual rows — embedded per cell)::

    PYTHONPATH=src python benchmarks/bench_f13_query_exec.py [--quick]
"""

from __future__ import annotations

import argparse
import sys

from repro.benchio import Sweep, print_sweep, timed
from repro.benchio.harness import plan_stats, write_bench_json
from repro.datasets import books
from repro.datasets.synthetic import employee_workload
from repro.db import Database
from repro.query import CompiledEvaluator, Evaluator, PlanCache, parse_query


def _employee_db(n_employees: int, n_departments: int,
                 seed: int = 3) -> Database:
    workload = employee_workload(n_employees, n_departments, seed=seed)
    database = Database()
    database.add_facts(workload.facts)
    return database


def _employee_view(n_employees: int, n_departments: int, seed: int = 3):
    return _employee_db(n_employees, n_departments, seed=seed).view()


#: Workload name → (database factory, {shape name: query text}).  The
#: same-department pairs join runs on a smaller population because the
#: reference engine allocates one binding dict per output row and the
#: output is quadratic in department size.
_WORKLOADS = {
    "books-e4": (
        books.load,
        {
            "all-books": books.ALL_BOOKS,
            "self-citations": books.SELF_CITATIONS,
            "self-citing-authors": books.SELF_CITING_AUTHORS,
            "books-not-by-john": books.BOOKS_NOT_BY_JOHN,
        },
    ),
    "employees-1000": (
        lambda: _employee_db(1000, 20),
        {
            "join3": "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, d)"
                     " and (x, EARNS, s)",
            "join2-selective": "(x, WORKS-FOR, DEPT0) and (x, EARNS, s)",
            "navigation-star": "(EMP0, r, t)",
        },
    ),
    "employees-400": (
        lambda: _employee_db(400, 10, seed=5),
        {
            "same-dept-pairs": "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, d)"
                               " and (y, ∈, EMPLOYEE)"
                               " and (y, WORKS-FOR, d)",
        },
    ),
}
#: Quick mode (the CI smoke configuration): one small employee world.
_QUICK_WORKLOADS = {
    "books-e4": _WORKLOADS["books-e4"],
    "employees-200": (
        lambda: _employee_db(200, 8),
        {
            "join3": "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, d)"
                     " and (x, EARNS, s)",
            "navigation-star": "(EMP0, r, t)",
        },
    ),
}

#: The headline shape: the ISSUE target is ≥3× on multi-conjunct joins.
_HEADLINE = ("employees-1000", "join3")
_QUICK_HEADLINE = ("employees-200", "join3")


def _probe_queries(view, count: int = 60):
    """A browsing-probe workload: half succeeding, half failing.

    Query *text*, as the browsing layer issues it — the plan cache
    (not the caller) is responsible for parsing each at most once.
    """
    queries = []
    for index in range(count // 2):
        queries.append(f"(EMP{index}, EARNS, s)")
        queries.append(f"(EMP{index}, MANAGES, y)")
    return queries


def _run_probes(evaluator, queries):
    return [evaluator.succeeds(query) for query in queries]


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_f13_engines_agree_and_compiled_wins(benchmark):
    sweep = Sweep(name="F13: compiled vs reference query engine",
                  parameter="shape")
    view = _employee_view(400, 10, seed=5)
    reference = Evaluator(view, plans=PlanCache())
    compiled = CompiledEvaluator(view, plans=PlanCache())
    speedups = {}
    shapes = {
        "join3": "(x, ∈, EMPLOYEE) and (x, WORKS-FOR, d)"
                 " and (x, EARNS, s)",
        "navigation-star": "(EMP0, r, t)",
    }
    for shape, text in shapes.items():
        assert compiled.evaluate(text) == reference.evaluate(text)
        reference_s = timed(lambda: reference.evaluate(text), repeat=3)
        compiled_s = timed(lambda: compiled.evaluate(text), repeat=3)
        speedups[shape] = reference_s / compiled_s
        sweep.add(shape, reference_s=reference_s, compiled_s=compiled_s,
                  speedup=round(speedups[shape], 2))
    print_sweep(sweep)
    # Shape, not a tight bound: the committed matrix carries the real
    # numbers; here we only require the batch engine to actually win.
    assert speedups["join3"] > 1.5
    benchmark(compiled.evaluate, shapes["join3"])


def test_f13_probe_workload(benchmark):
    view = _employee_view(200, 8)
    queries = _probe_queries(view, count=40)
    reference = Evaluator(view, plans=PlanCache())
    compiled = CompiledEvaluator(view, plans=PlanCache())
    assert _run_probes(compiled, queries) == _run_probes(reference,
                                                         queries)
    benchmark(_run_probes, compiled, queries)


# ----------------------------------------------------------------------
# Script mode: the engine × workload × shape matrix → BENCH_queries.json
# ----------------------------------------------------------------------
def run_matrix(quick: bool = False, repeat: int = 3):
    """Measure every (workload, shape) cell under both engines.

    Returns ``(rows, summary)``: per-cell wall seconds and result
    sizes (the compiled cells embed per-operator plan stats), and the
    headline multi-conjunct-join comparison.
    """
    if quick:
        repeat = 1
    workloads = _QUICK_WORKLOADS if quick else _WORKLOADS
    headline = _QUICK_HEADLINE if quick else _HEADLINE
    rows = []
    seconds = {}
    for workload_name, (factory, shapes) in workloads.items():
        db = factory()
        view = db.view()
        reference = Evaluator(view, plans=PlanCache())
        compiled = CompiledEvaluator(view, plans=PlanCache())
        for shape, text in shapes.items():
            reference_value = reference.evaluate(text)
            compiled_value, run = compiled.evaluate_with_stats(text)
            compiled.evaluate(text)       # warm the plan-cache entry
            if compiled_value != reference_value:
                raise AssertionError(
                    f"engines disagree on {workload_name}/{shape}")
            for engine, evaluator in (("reference", reference),
                                      ("compiled", compiled)):
                cell_seconds = timed(lambda: evaluator.evaluate(text),
                                     repeat=repeat)
                seconds[engine, workload_name, shape] = cell_seconds
                row = {
                    "engine": engine,
                    "workload": workload_name,
                    "shape": shape,
                    "query": text,
                    "rows": len(compiled_value),
                    "seconds": round(cell_seconds, 6),
                    "ops_per_second": round(1.0 / cell_seconds, 1),
                }
                if engine == "compiled":
                    row["plan"] = plan_stats(run)
                rows.append(row)
                print(f"  {engine:9s} {workload_name}/{shape:20s}"
                      f" {cell_seconds:8.4f}s"
                      f"  rows={len(compiled_value)}")
        # The probe workload times succeeds() over many small queries
        # rather than one evaluate(), so it gets its own cells.
        probe_queries = _probe_queries(view) \
            if workload_name.startswith("employees") else None
        if probe_queries:
            for engine, evaluator in (("reference", reference),
                                      ("compiled", compiled)):
                _run_probes(evaluator, probe_queries)  # warm plan cache
                cell_seconds = timed(
                    lambda: _run_probes(evaluator, probe_queries),
                    repeat=repeat)
                seconds[engine, workload_name, "probe"] = cell_seconds
                rows.append({
                    "engine": engine,
                    "workload": workload_name,
                    "shape": "probe",
                    "query": f"succeeds × {len(probe_queries)}",
                    "rows": len(probe_queries),
                    "seconds": round(cell_seconds, 6),
                    "ops_per_second": round(
                        len(probe_queries) / cell_seconds, 1),
                })
                print(f"  {engine:9s} {workload_name}/probe"
                      f"                {cell_seconds:8.4f}s")
        # The same workload on the interned columnar store
        # (Database.compact_store()): compiled engine only — the
        # store swap is invisible to engine semantics, so one engine
        # suffices to price the representation.
        db.compact_store()
        interned = CompiledEvaluator(db.view(), plans=PlanCache())
        for shape, text in shapes.items():
            value, run = interned.evaluate_with_stats(text)
            if value != compiled.evaluate(text):
                raise AssertionError(
                    f"interned store disagrees on"
                    f" {workload_name}/{shape}")
            interned.evaluate(text)       # warm the plan-cache entry
            cell_seconds = timed(lambda: interned.evaluate(text),
                                 repeat=repeat)
            seconds["compiled-interned", workload_name, shape] = \
                cell_seconds
            rows.append({
                "engine": "compiled-interned",
                "workload": workload_name,
                "shape": shape,
                "query": text,
                "rows": len(value),
                "seconds": round(cell_seconds, 6),
                "ops_per_second": round(1.0 / cell_seconds, 1),
                "plan": plan_stats(run),
            })
            print(f"  {'interned':9s} {workload_name}/{shape:20s}"
                  f" {cell_seconds:8.4f}s  rows={len(value)}")
        if probe_queries:
            _run_probes(interned, probe_queries)  # warm plan cache
            cell_seconds = timed(
                lambda: _run_probes(interned, probe_queries),
                repeat=repeat)
            seconds["compiled-interned", workload_name, "probe"] = \
                cell_seconds
            rows.append({
                "engine": "compiled-interned",
                "workload": workload_name,
                "shape": "probe",
                "query": f"succeeds × {len(probe_queries)}",
                "rows": len(probe_queries),
                "seconds": round(cell_seconds, 6),
                "ops_per_second": round(
                    len(probe_queries) / cell_seconds, 1),
            })
            print(f"  {'interned':9s} {workload_name}/probe"
                  f"                {cell_seconds:8.4f}s")
    workload_name, shape = headline
    before = seconds["reference", workload_name, shape]
    after = seconds["compiled", workload_name, shape]
    speedups = {
        (w, s): round(seconds["reference", w, s]
                      / seconds["compiled", w, s], 2)
        for (engine, w, s) in seconds if engine == "compiled"
    }
    summary = {
        "headline_shape": f"{workload_name}/{shape}",
        "reference_seconds": round(before, 6),
        "compiled_seconds": round(after, 6),
        "speedup": round(before / after, 2),
        "speedups": {f"{w}/{s}": value
                     for (w, s), value in sorted(speedups.items())},
        # reference ÷ compiled-on-interned-store: how the columnar
        # representation prices each shape relative to the same
        # baseline the hash-store speedups use.
        "interned_speedups": {
            f"{w}/{s}": round(seconds["reference", w, s]
                              / seconds["compiled-interned", w, s], 2)
            for (engine, w, s) in sorted(seconds)
            if engine == "compiled-interned"
        },
    }
    return rows, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="F13 query-execution benchmark: engine × workload"
                    " × shape matrix → BENCH_queries.json")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads, single repetition (the"
                             " CI smoke configuration)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions per cell (best-of)")
    parser.add_argument("--output", default="BENCH_queries.json",
                        help="where to write the JSON document")
    options = parser.parse_args(argv)
    print(f"F13 query-engine matrix ({'quick' if options.quick else 'full'})")
    rows, summary = run_matrix(quick=options.quick, repeat=options.repeat)
    document = write_bench_json(
        options.output, "F13-query-exec", rows, summary=summary,
        config={"quick": options.quick,
                "repeat": 1 if options.quick else options.repeat})
    print(f"wrote {options.output}: {len(rows)} cells;"
          f" {summary['headline_shape']} reference"
          f" {summary['reference_seconds']}s → compiled"
          f" {summary['compiled_seconds']}s"
          f" ({summary['speedup']}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
