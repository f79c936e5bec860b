"""The standard query language: predicate-logic formulas over templates.

§2.7's retrieval language: template atoms combined with ∧, ∨, ∃, ∀
over the closure plus the virtual relations.  The package provides the
AST (:mod:`repro.query.ast`), the textual surface syntax
(:mod:`repro.query.parser`), a selectivity-based conjunct planner, the
backtracking evaluator and EXPLAIN / EXPLAIN ANALYZE.  The brute-force
reference evaluator used for differential testing is
:mod:`repro.query.reference`; the package does not import it.

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
    exists,
    forall,
)
from .canonical import canonical_form
from .compile import CompiledPlan, compile_query
from .evaluate import Evaluator, check_safety, limited_variables
from .exec import (
    BindingTable,
    CompiledEvaluator,
    OperatorStats,
    PlanRun,
    execute_plan,
)
from .explain import Explanation, PlanStep, explain
from .parser import ALIASES, parse_formula, parse_query, parse_template
from .planner import estimate_cost, next_conjunct, order_conjuncts

__all__ = [
    "And", "Atom", "Exists", "ForAll", "Formula", "Or", "Query", "atom",
    "exists", "forall", "canonical_form",
    "CompiledPlan", "compile_query",
    "Evaluator", "check_safety", "limited_variables", "BindingTable",
    "CompiledEvaluator", "OperatorStats", "PlanRun", "execute_plan",
    "Explanation", "PlanStep", "explain", "ALIASES",
    "parse_formula", "parse_query", "parse_template", "estimate_cost",
    "next_conjunct", "order_conjuncts",
]
