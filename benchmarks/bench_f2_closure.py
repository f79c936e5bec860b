"""F2 — closure computation: dispatched vs semi-naive vs naive.

The paper's closure (§2.6) is the cost every other operation amortizes;
this bench sweeps heap size across the three engines — the textbook
naive baseline, the interpreted semi-naive engine, and the dispatched
fast path (compiled joins + relationship-indexed dispatch,
:mod:`repro.rules.dispatch`) — and verifies they agree fact for
fact while the fast path wins the wall clock.

Run as a script to emit ``BENCH_closure.json`` (the engine × dataset ×
limit matrix with wall times and lookup counters) for the perf
trajectory::

    PYTHONPATH=src python benchmarks/bench_f2_closure.py [--quick]
"""

from __future__ import annotations

import argparse
import sys

import pytest

from repro.benchio import Sweep, print_sweep, timed
from repro.benchio.harness import measure, write_bench_json
from repro.core.facts import Fact
from repro.core.interned import InternedFactStore
from repro.core.store import FactStore
from repro.datasets.synthetic import hierarchy_facts, membership_facts
from repro.rules.builtin import STANDARD_RULES
from repro.rules.composition import compose_closure
from repro.rules.dispatch import compile_ruleset, dispatched_closure
from repro.rules.engine import naive_closure, semi_naive_closure
from repro.rules.rule import RelationshipClassifier, RuleContext


def _workload(depth: int, fanout: int, instances: int):
    """Hierarchy + memberships + one class-level fact to inherit."""
    tree, leaves = hierarchy_facts(depth, fanout)
    facts = list(tree)
    facts.extend(membership_facts(leaves, instances))
    facts.append(Fact("C0", "HAS-POLICY", "GENERAL-POLICY"))
    return facts


def _context(facts):
    return RuleContext(classifier=RelationshipClassifier(FactStore(facts)))


def _inference_heavy_workload(relationship_facts: int):
    """A hierarchy with instances plus ordinary facts over the class
    entities: every §3 rule family fires, and the closure is an order
    of magnitude larger than the base — the regime where naive
    re-derivation hurts."""
    import random

    tree, leaves = hierarchy_facts(4, 2)
    facts = list(tree) + membership_facts(leaves, 2)
    rng = random.Random(0)
    entities = [f"C{i}" for i in range(31)]
    for index in range(relationship_facts):
        facts.append(Fact(rng.choice(entities), f"R{index % 8}",
                          rng.choice(entities)))
    return facts


def test_f2_engines_sweep(benchmark):
    sweep = Sweep(name="F2: closure engines vs workload size",
                  parameter="rel_facts")
    ratios = []
    compiled = compile_ruleset(STANDARD_RULES)
    for relationship_facts in (20, 40, 60):
        facts = _inference_heavy_workload(relationship_facts)
        context = _context(facts)
        # measure() times untraced (comparable to plain timed()) and
        # attaches obs counters from one extra observed run, so the
        # sweep explains the speedup: the lookup counts ARE the work
        # naive re-derivation repeats (and dispatch skips).
        semi_m = measure(
            "semi-naive",
            lambda: semi_naive_closure(facts, STANDARD_RULES, context),
            repeat=3, counter_prefixes=("store.lookups", "engine.rounds"))
        naive_m = measure(
            "naive",
            lambda: naive_closure(facts, STANDARD_RULES, context),
            repeat=3, counter_prefixes=("store.lookups",))
        dispatched_m = measure(
            "dispatched",
            lambda: dispatched_closure(facts, STANDARD_RULES, context,
                                       compiled=compiled),
            repeat=3,
            counter_prefixes=("store.lookups", "dispatch.skipped_rules"))
        semi = semi_naive_closure(facts, STANDARD_RULES, context)
        naive = naive_closure(facts, STANDARD_RULES, context)
        dispatched = dispatched_closure(facts, STANDARD_RULES, context,
                                        compiled=compiled)
        assert set(semi.store) == set(naive.store) == set(dispatched.store)
        assert semi.rule_firings == dispatched.rule_firings
        ratio = naive_m.seconds / semi_m.seconds
        ratios.append(ratio)
        sweep.add(relationship_facts, base=len(facts), closure=semi.total,
                  iterations=semi.iterations,
                  naive_s=naive_m.seconds, semi_naive_s=semi_m.seconds,
                  dispatched_s=dispatched_m.seconds,
                  semi_lookups=semi_m.metrics.get("store.lookups"),
                  dispatched_lookups=dispatched_m.metrics.get(
                      "store.lookups"),
                  skipped=dispatched_m.metrics.get(
                      "dispatch.skipped_rules"),
                  speedup=round(ratio, 2))
    print_sweep(sweep)
    # Shape: semi-naive wins decisively on the largest workload.
    assert ratios[-1] > 1.3

    facts = _inference_heavy_workload(40)
    context = _context(facts)
    benchmark.pedantic(
        semi_naive_closure, args=(facts, STANDARD_RULES, context),
        rounds=3, iterations=1)


def test_f2_semi_naive_largest(benchmark):
    facts = _workload(5, 2, 2)
    context = _context(facts)
    result = benchmark(semi_naive_closure, facts, STANDARD_RULES, context)
    assert result.derived_count > 0


def test_f2_naive_largest(benchmark):
    facts = _workload(5, 2, 2)
    context = _context(facts)
    result = benchmark(naive_closure, facts, STANDARD_RULES, context)
    assert result.derived_count > 0


def test_f2_dispatched_largest(benchmark):
    facts = _workload(5, 2, 2)
    context = _context(facts)
    compiled = compile_ruleset(STANDARD_RULES)
    result = benchmark(dispatched_closure, facts, STANDARD_RULES, context,
                       compiled=compiled)
    assert result.derived_count > 0
    baseline = semi_naive_closure(facts, STANDARD_RULES, context)
    assert set(result.store) == set(baseline.store)


def test_f2_iterations_scale_with_chain_depth(benchmark):
    """Semi-naive round count tracks the longest derivation chain."""
    sweep = Sweep(name="F2: iterations vs ≺-chain length",
                  parameter="chain")
    for chain in (4, 8, 16):
        facts = [Fact(f"N{i}", "≺", f"N{i+1}") for i in range(chain)]
        result = semi_naive_closure(facts, STANDARD_RULES,
                                    _context(facts))
        sweep.add(chain, iterations=result.iterations,
                  closure=result.total)
        assert result.iterations <= chain + 1
    print_sweep(sweep)
    facts = [Fact(f"N{i}", "≺", f"N{i+1}") for i in range(16)]
    benchmark(semi_naive_closure, facts, STANDARD_RULES, _context(facts))


# ----------------------------------------------------------------------
# Script mode: the engine × dataset × limit matrix → BENCH_closure.json
# ----------------------------------------------------------------------
def _dag_workload():
    from repro.datasets.synthetic import layered_dag_facts
    return layered_dag_facts(5, 10, 3, seed=1)


#: Dataset name → (factory, composition limits to measure).  The
#: inference-heavy series carries the engine comparison (composition
#: off — the closure itself is the workload); the layered DAG carries
#: the limit axis, since composing an inference-heavy closure explodes
#: combinatorially and would swamp the engine signal.
_DATASETS = {
    "inference-heavy-100": (lambda: _inference_heavy_workload(100), (1,)),
    "inference-heavy-250": (lambda: _inference_heavy_workload(250), (1,)),
    "inference-heavy-400": (lambda: _inference_heavy_workload(400), (1,)),
    "layered-dag": (_dag_workload, (1, 2, 4)),
}
#: Quick mode (the CI smoke configuration) keeps the small datasets so
#: the run finishes in seconds.
_QUICK_DATASETS = ("inference-heavy-100", "layered-dag")
#: The naive baseline re-derives the full closure every round — it is
#: only affordable on the small datasets.
_NAIVE_DATASETS = ("inference-heavy-100", "layered-dag")


def _engine_runner(engine: str, facts, context, limit: int, compiled,
                   interned_base=None):
    """A zero-argument closure computing one matrix cell."""
    def run():
        if engine == "naive":
            result = naive_closure(facts, STANDARD_RULES, context)
        elif engine == "semi-naive":
            result = semi_naive_closure(facts, STANDARD_RULES, context)
        elif engine == "dispatched-interned":
            # Same fast path, but seeded from an interned columnar
            # base: seed_store() shares the frozen generation instead
            # of rebuilding hash indexes, so this cell prices the
            # closure as a replica attached to a shared generation
            # would pay it.
            result = dispatched_closure(interned_base, STANDARD_RULES,
                                        context, compiled=compiled)
        else:
            result = dispatched_closure(facts, STANDARD_RULES, context,
                                        compiled=compiled)
        if limit > 1:
            combined = result.store.copy()
            combined.add_all(compose_closure(result.store, limit).facts)
            return combined
        return result.store
    return run


def run_matrix(quick: bool = False, repeat: int = 3):
    """Measure the engine × dataset × limit matrix.

    Returns ``(rows, summary)``: one row per cell with wall seconds and
    lookup/dispatch counters, and the headline before/after comparison
    on the largest dataset (composition off).
    """
    if quick:
        repeat = 1
    dataset_names = _QUICK_DATASETS if quick else tuple(_DATASETS)
    compiled = compile_ruleset(STANDARD_RULES)
    rows = []
    seconds = {}
    for dataset_name in dataset_names:
        factory, limits = _DATASETS[dataset_name]
        facts = factory()
        context = _context(facts)
        interned_base = InternedFactStore.from_facts(facts)
        sizes = {}
        for limit in limits:
            for engine in ("naive", "semi-naive", "dispatched",
                           "dispatched-interned"):
                if engine == "naive" \
                        and dataset_name not in _NAIVE_DATASETS:
                    continue
                # The interned axis prices the base representation;
                # composition never touches it, so one limit suffices.
                if engine == "dispatched-interned" and limit != 1:
                    continue
                runner = _engine_runner(engine, facts, context, limit,
                                        compiled,
                                        interned_base=interned_base)
                m = measure(f"{engine}/{dataset_name}/limit={limit}",
                            runner, repeat=repeat,
                            counter_prefixes=("store.lookups",
                                              "store.adds",
                                              "dispatch.",
                                              "engine.rounds"))
                closure_size = len(runner())
                sizes.setdefault(limit, set()).add(closure_size)
                seconds[engine, dataset_name, limit] = m.seconds
                rows.append({
                    "engine": engine,
                    "dataset": dataset_name,
                    "limit": limit,
                    "base_facts": len(facts),
                    "closure_facts": closure_size,
                    "seconds": round(m.seconds, 6),
                    "metrics": m.metrics,
                })
                print(f"  {m.label:45s} {m.seconds:8.4f}s"
                      f"  closure={closure_size}")
        # Engines must agree fact-for-fact at every limit.
        for limit, observed in sizes.items():
            if len(observed) != 1:
                raise AssertionError(
                    f"engines disagree on {dataset_name} at"
                    f" limit={limit}: sizes {sorted(observed)}")
    largest = max(
        (name for name in dataset_names if name.startswith("inference")),
        key=lambda name: int(name.rsplit("-", 1)[1]))
    before = seconds["semi-naive", largest, 1]
    after = seconds["dispatched", largest, 1]
    interned = seconds["dispatched-interned", largest, 1]
    summary = {
        "largest_dataset": largest,
        "semi_naive_seconds": round(before, 6),
        "dispatched_seconds": round(after, 6),
        "speedup": round(before / after, 2),
        # Dispatched closure seeded from an interned columnar base —
        # the cost a shared-generation replica pays to warm its closure.
        "dispatched_interned_seconds": round(interned, 6),
        "interned_speedup": round(before / interned, 2),
    }
    return rows, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="F2 closure benchmark: engine × dataset × limit"
                    " matrix → BENCH_closure.json")
    parser.add_argument("--quick", action="store_true",
                        help="small datasets, single repetition (the CI"
                             " smoke configuration)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions per cell (best-of)")
    parser.add_argument("--output", default="BENCH_closure.json",
                        help="where to write the JSON document")
    options = parser.parse_args(argv)
    print(f"F2 closure matrix ({'quick' if options.quick else 'full'})")
    rows, summary = run_matrix(quick=options.quick, repeat=options.repeat)
    document = write_bench_json(
        options.output, "F2-closure", rows, summary=summary,
        config={"quick": options.quick,
                "repeat": 1 if options.quick else options.repeat,
                "rules": len(STANDARD_RULES)})
    print(f"wrote {options.output}: {len(rows)} cells;"
          f" {summary['largest_dataset']} semi-naive"
          f" {summary['semi_naive_seconds']}s → dispatched"
          f" {summary['dispatched_seconds']}s"
          f" ({summary['speedup']}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
