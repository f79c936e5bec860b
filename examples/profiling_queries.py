#!/usr/bin/env python3
"""Profiling queries and closures with the observability layer.

Walks through the three ways to watch the system work:

1. ``explain_analyze`` — the planner's estimates next to what actually
   ran, per conjunct;
2. scoped tracing with ``use_telemetry`` — spans, counters, and gauges
   around any block of code, summarized as a fixed-width report or
   exported as JSON lines;
3. per-rule closure accounting — where the fixpoint loop's time went,
   rule by rule.

Run:  python examples/profiling_queries.py
"""

import io

from repro import Database
from repro.datasets import movies
from repro.obs import (Telemetry, read_jsonl, summary, use_telemetry,
                       write_jsonl)


def main() -> None:
    db = movies.load()

    # --- 1. EXPLAIN ANALYZE -----------------------------------------
    # The planner orders conjuncts by estimated cost; the analyzed
    # explanation shows how good those estimates were.
    query = "(x, ∈, SCIENCE-FICTION) and (x, DIRECTED-BY, y)"
    print("EXPLAIN ANALYZE of:", query)
    print(db.explain_analyze(query).render())

    # --- 2. Scoped tracing ------------------------------------------
    # A private spine observes one block without touching global
    # state: every instrumented layer (store, engine, evaluator,
    # browsers) reports into it.
    with use_telemetry(Telemetry()) as telemetry:
        db2 = Database(movies.facts())
        db2.closure()
        db2.query("(x, ∈, FILM) and (x, DIRECTED-BY, TARKOVSKY)")
        db2.navigate("(SOLARIS-1972, *, *)")
    print()
    print(summary(telemetry, title="one traced session"))

    # The same data exports as JSON lines for offline analysis.
    buffer = io.StringIO()
    count = write_jsonl(telemetry, buffer)
    events = read_jsonl(io.StringIO(buffer.getvalue()))
    print(f"\nexported {count} events;"
          f" first: {events[0]['type']} {events[0].get('name', '')!r}")

    # --- 3. Per-rule closure accounting -----------------------------
    # Under tracing, the engine attributes the fixpoint loop's time to
    # individual rules (plus the reserved "(apply)" store-update
    # entry); the pieces sum to the engine.closure_seconds gauge.
    with use_telemetry(Telemetry()) as telemetry:
        db3 = Database(movies.facts())
        result = db3.standard_closure()
    total = telemetry.gauges["engine.closure_seconds"].last
    print(f"\nclosure: {result.derived_count} facts derived in"
          f" {result.iterations} rounds, {total * 1000:.1f} ms")
    print("slowest rules:")
    slowest = sorted(result.rule_times.items(),
                     key=lambda item: item[1], reverse=True)
    for name, seconds in slowest[:5]:
        firings = result.rule_firings.get(name, 0)
        print(f"  {name:<28} {seconds * 1000:7.2f} ms"
              f"   {firings} firings")
    print(f"  accounted: {sum(result.rule_times.values()) / total:.0%}"
          f" of the loop")


if __name__ == "__main__":
    main()
