"""EXPLAIN: show how the evaluator will attack a query.

The planner re-ranks conjuncts dynamically per binding, so a full
static plan does not exist; what *can* be shown — and what this module
renders — is the greedy static order from the initial state, each
part's estimated cost, and the safety classification of the query's
variables.  Useful for understanding why a probe is slow and for
testing the planner.

:func:`explain_analyze` goes one step further: it *runs* the query
under a scoped spine and renders the plan and the actual execution
side by side — per-conjunct estimated cost against rows actually
produced, plus wall/CPU time and the evaluator's counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from ..core.facts import Variable
from ..obs.telemetry import ConjunctStats, Telemetry, use_telemetry
from ..virtual.computed import FactView
from .ast import And, Exists, Formula, Query, check_safety
from .parser import parse_query
from .planner import estimate_cost, order_conjuncts


@dataclass
class PlanStep:
    """One conjunct in the chosen static order."""

    order: int
    formula: Formula
    estimated_cost: float
    bound_before: Set[str]

    def describe(self) -> str:
        bound = ", ".join(sorted(self.bound_before)) or "-"
        return (f"{self.order}. {self.formula}"
                f"   [est {self.estimated_cost:.1f}; bound: {bound}]")


@dataclass
class Explanation:
    """The full explanation of a query."""

    query: Query
    steps: List[PlanStep]
    safe: bool
    safety_error: str = ""
    #: Rendered compiled operator tree (set when the compiled engine
    #: explains the query; empty under the reference engine).
    compiled_plan: str = ""

    def render(self) -> str:
        lines = [f"query: {self.query}"]
        lines.append(
            "safety: ok" if self.safe else f"safety: {self.safety_error}")
        if self.steps:
            lines.append("initial conjunct order:")
            lines.extend("  " + step.describe() for step in self.steps)
        else:
            lines.append("single-part formula; no join ordering needed")
        if self.compiled_plan:
            lines.append(self.compiled_plan)
        return "\n".join(lines)


def explain(view: FactView, query: Union[str, Query],
            engine: str = "reference") -> Explanation:
    """Explain the evaluation of ``query`` against ``view``.

    With ``engine="compiled"``, the rendered explanation additionally
    shows the compiled operator tree (:mod:`repro.query.compile`) with
    each operator's compile-time row estimate.
    """
    if isinstance(query, str):
        query = parse_query(query)
    safe, error = True, ""
    try:
        check_safety(query.formula)
    except Exception as exc:  # QueryError, reported not raised
        safe, error = False, str(exc)

    steps: List[PlanStep] = []
    formula = query.formula
    while isinstance(formula, Exists):
        formula = formula.body
    if isinstance(formula, And):
        bound: Set[Variable] = set()
        ordered = order_conjuncts(list(formula.parts), bound, view)
        for index, part in enumerate(ordered, start=1):
            steps.append(PlanStep(
                order=index,
                formula=part,
                estimated_cost=estimate_cost(part, bound, view),
                bound_before={v.name for v in bound},
            ))
            bound |= part.free_variables()
    compiled_plan = ""
    if engine == "compiled":
        from .compile import compile_query
        compiled_plan = compile_query(query, view).describe()
    return Explanation(query=query, steps=steps, safe=safe,
                       safety_error=error, compiled_plan=compiled_plan)


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------
@dataclass
class AnalyzedStep:
    """One conjunct with the planner's estimate beside what actually
    happened when the query ran."""

    order: int
    formula: str
    estimated_cost: float
    evals: int
    actual_rows: int


@dataclass
class AnalyzedExplanation:
    """Plan vs actual for one executed query."""

    explanation: Explanation
    value: Set[tuple] = field(default_factory=set)
    executed: bool = False
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    steps: List[AnalyzedStep] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        from ..browse.render import format_table

        lines = [self.explanation.render()]
        if not self.executed:
            lines.append("not executed (query is unsafe)")
            return "\n".join(lines)
        lines.append("")
        lines.append("plan vs actual:")
        if self.steps:
            rows = [[step.order, step.formula,
                     round(step.estimated_cost, 1), step.actual_rows,
                     step.evals]
                    for step in self.steps]
            table = format_table(
                ["#", "conjunct", "est cost", "actual rows", "evals"],
                rows)
            lines.extend("  " + line for line in table.splitlines())
        else:
            lines.append("  (single template; no conjunct breakdown)")
        lines.append(f"result rows: {len(self.value)}")
        lines.append(f"wall: {self.wall_seconds * 1000:.3f} ms"
                     f"   cpu: {self.cpu_seconds * 1000:.3f} ms")
        if self.counters:
            interesting = {
                name: value for name, value in sorted(self.counters.items())
                if not name.startswith("store.solutions.calls.")
            }
            lines.append("counters: " + ", ".join(
                f"{name}={value}" for name, value in interesting.items()))
        return "\n".join(lines)


def explain_analyze(view: FactView, query: Union[str, Query],
                    engine: str = "reference") -> AnalyzedExplanation:
    """Run ``query`` under a scoped spine and report plan vs actual.

    The static plan (greedy initial conjunct order with estimated
    costs) is computed first, then the query executes for real — same
    evaluator, same view — inside a private spine, and the per-conjunct
    actual row counts are joined back onto the plan steps.  Unsafe
    queries are explained but not executed.

    With ``engine="compiled"``, execution goes through the
    set-at-a-time executor and the analyzed steps are the compiled
    plan's *operators* — estimated vs actual rows per operator, in
    plan-tree preorder — instead of the reference engine's per-conjunct
    records; it needs a view over an interned store, as
    :class:`~repro.query.exec.CompiledEvaluator` does.
    """
    if isinstance(query, str):
        query = parse_query(query)
    plan = explain(view, query, engine=engine)
    analyzed = AnalyzedExplanation(explanation=plan)
    if not plan.safe:
        return analyzed

    if engine == "compiled":
        from .exec import CompiledEvaluator

        telemetry = Telemetry()
        with use_telemetry(telemetry):
            with telemetry.span("explain_analyze", query=str(query)) as root:
                analyzed.value, run = CompiledEvaluator(
                    view).evaluate_with_stats(query)
        analyzed.executed = True
        analyzed.wall_seconds = root.wall
        analyzed.cpu_seconds = root.cpu
        analyzed.counters = dict(telemetry.counters)
        for index, stats in enumerate(run.operators, start=1):
            analyzed.steps.append(AnalyzedStep(
                order=index, formula=stats.label,
                estimated_cost=stats.est,
                evals=stats.calls, actual_rows=stats.out_rows))
        return analyzed

    from .evaluate import Evaluator

    telemetry = Telemetry()
    with use_telemetry(telemetry):
        with telemetry.span("explain_analyze", query=str(query)) as root:
            analyzed.value = Evaluator(view).evaluate(query)
    analyzed.executed = True
    analyzed.wall_seconds = root.wall
    analyzed.cpu_seconds = root.cpu
    analyzed.counters = dict(telemetry.counters)

    recorded = dict(telemetry.conjuncts)
    for step in plan.steps:
        key = str(step.formula)
        stats: Optional[ConjunctStats] = recorded.pop(key, None)
        analyzed.steps.append(AnalyzedStep(
            order=step.order, formula=key,
            estimated_cost=step.estimated_cost,
            evals=stats.evals if stats else 0,
            actual_rows=stats.rows if stats else 0))
    # Conjuncts evaluated inside quantified sub-formulas do not appear
    # in the static plan; list them after the planned steps so nothing
    # the evaluator did is hidden.
    for key, stats in sorted(recorded.items()):
        analyzed.steps.append(AnalyzedStep(
            order=len(analyzed.steps) + 1, formula=key,
            estimated_cost=stats.estimate_mean,
            evals=stats.evals, actual_rows=stats.rows))
    return analyzed
