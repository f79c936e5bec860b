"""The standard query language: predicate-logic formulas over templates.

§2.7's retrieval language: template atoms combined with ∧, ∨, ∃, ∀
over the closure plus the virtual relations.  The package provides the
AST (:mod:`repro.query.ast`), the textual surface syntax
(:mod:`repro.query.parser`), a selectivity-based conjunct planner, the
compiled set-at-a-time engine and EXPLAIN / EXPLAIN ANALYZE.  The two
references the engine is checked against — the backtracking
:class:`~repro.query.evaluate.Evaluator` and the brute-force
:mod:`repro.query.reference` — are imported by whoever compares
against them; the package imports neither.

Example::

    from repro import Database

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    db.add("EMPLOYEE", "EARNS", "SALARY")
    assert db.query("(x, EARNS, SALARY)") == {("JOHN",), ("EMPLOYEE",)}
    assert db.ask("exists y: (JOHN, EARNS, y)")
"""

from .ast import (
    And,
    Atom,
    Exists,
    ForAll,
    Formula,
    Or,
    Query,
    atom,
    check_safety,
    exists,
    forall,
    limited_variables,
)
from .canonical import canonical_form
from .compile import CompiledPlan, compile_query
from .exec import (
    BindingTable,
    CompiledEvaluator,
    OperatorStats,
    PlanRun,
    execute_plan,
)
from .explain import Explanation, PlanStep, explain
from .parser import ALIASES, parse_formula, parse_query, parse_template
from .planner import estimate_cost, order_conjuncts

__all__ = [
    "And", "Atom", "Exists", "ForAll", "Formula", "Or", "Query", "atom",
    "exists", "forall", "canonical_form",
    "CompiledPlan", "compile_query",
    "check_safety", "limited_variables", "BindingTable",
    "CompiledEvaluator", "OperatorStats", "PlanRun", "execute_plan",
    "Explanation", "PlanStep", "explain", "ALIASES",
    "parse_formula", "parse_query", "parse_template", "estimate_cost",
    "order_conjuncts",
]
