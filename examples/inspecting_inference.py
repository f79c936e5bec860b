#!/usr/bin/env python3
"""Inspecting the inference machinery: why, explain, rule ablation.

A loosely structured database answers with *inferred* facts; this tour
shows the introspection tools around that: derivation provenance
(``db.why``), query plans (``db.explain``) and rule ablation.

Run:  python examples/inspecting_inference.py
"""

from repro import Database
from repro.datasets import paper


def provenance_tour() -> None:
    print("=" * 64)
    print("Why does an answer hold?  (derivation provenance)")
    print("=" * 64)
    db = paper.load(Database(trace=True))
    db.add("JOHN", "≈", "JOHNNY")

    print("\n> query (JOHNNY, EARNS, y)")
    for (amount,) in sorted(db.query("(JOHNNY, EARNS, y)")):
        print("  ", amount)

    print("\n> why (JOHNNY, EARNS, COMPENSATION)")
    print(db.why("(JOHNNY, EARNS, COMPENSATION)").render())

    tree = db.why("(JOHNNY, EARNS, COMPENSATION)")
    print("\nstored facts this rests on:")
    for fact in sorted(tree.stored_support()):
        print("  ", fact)

    db.add("SALARY", "PAID-IN", "DOLLARS")
    db.limit(2)
    print("\n> why a composed path (after limit(2)):")
    print(db.why("(JOHN, EARNS.SALARY.PAID-IN, DOLLARS)").render())


def explain_tour() -> None:
    print()
    print("=" * 64)
    print("How will a query run?  (EXPLAIN)")
    print("=" * 64)
    db = paper.load()
    print()
    print(db.explain(
        "exists y: (z, in, EMPLOYEE) and (z, EARNS, y)"
        " and (y, >, 26500)").render())


def ablation_tour() -> None:
    print()
    print("=" * 64)
    print("Which rule produced which answers?  (include/exclude)")
    print("=" * 64)
    db = paper.load()
    question = "(MANAGER, WORKS-FOR, DEPARTMENT)"
    print(f"\n  {question} with all rules:      {db.ask(question)}")
    db.exclude("gen-source")
    print(f"  ... without gen-source:                       "
          f" {db.ask(question)}")
    db.include("gen-source")


def main() -> None:
    provenance_tour()
    explain_tour()
    ablation_tour()


if __name__ == "__main__":
    main()
