"""Query evaluation (paper §2.7).

"A query Q(x1,…,xn) … Its value is the set of all tuples (c1,…,cn)
which satisfy it."  The evaluator enumerates satisfying bindings over a
:class:`~repro.virtual.computed.FactView` — the materialized closure
plus the virtual relations — with greedy dynamic conjunct ordering.

Quantifier semantics: both ∃ and ∀ range over the *active domain* (the
entities occurring in the closure).  This is the only finite reading of
the paper's predicate calculus, and matches its examples: every worked
query quantifies over entities the database mentions.

Example::

    from repro import Database

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    assert db.query("(x, ∈, EMPLOYEE)") == {("JOHN",)}
"""

from __future__ import annotations

from typing import (
    FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union)

from ..core import deadline as _deadline
from ..core.errors import QueryError
from ..core.facts import Binding, Variable
from ..obs import telemetry as _obs
from ..virtual.computed import FactView
from .ast import And, Atom, Exists, ForAll, Formula, Or, Query
from .parser import parse_query_memo
from .planner import choose_conjunct


class Evaluator:
    """Evaluates formulas and queries against a fact view.

    Every call computes its answer: nothing here remembers a value
    (whole answers are remembered in one place, the net layer's
    per-snapshot memo, :mod:`repro.serve.net`).

    Queries may be passed as text or as parsed :class:`Query` objects;
    text goes through :func:`~repro.query.parser.parse_query_memo`,
    the one thing the query path keeps between calls.
    """

    def __init__(self, view: FactView):
        self.view = view

    def _resolve(self, query: Union[str, Query]) -> Query:
        """The parsed query for either input form."""
        if isinstance(query, str):
            return parse_query_memo(query)
        return query

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, query: Union[str, Query]) -> Set[Tuple[str, ...]]:
        """The value {Q}: all tuples of entities satisfying the query.

        For a proposition (closed formula) the value is ``{()}`` if it
        is true and ``set()`` otherwise; use :meth:`ask` for a bool.
        """
        query = self._resolve(query)
        check_safety(query.formula)
        evaluate_span = (_obs.TELEMETRY.span("query.evaluate",
                                          query=str(query))
                         if _obs.ENABLED else _obs.NULL_SPAN)
        with evaluate_span as span:
            results: Set[Tuple[str, ...]] = set()
            for binding in self.solutions(query.formula, {}):
                # Deadline checkpoint: one per result row keeps even a
                # single huge conjunct cancellable (repro.core.deadline).
                if _deadline.ACTIVE:
                    _deadline.check()
                results.add(tuple(binding[v] for v in query.variables))
            span.set(rows=len(results))
        return results

    def evaluate_wave(self, candidates: Sequence
                      ) -> Tuple[List[Set[Tuple[str, ...]]], int]:
        """The values of one retraction wave's candidates (conjunctive
        queries: ``templates``, ``free``, ``to_query()``), in order,
        and how many evaluations they cost — here one each, the
        reference the compiled engine's one-join-per-skeleton wave is
        held to."""
        values = []
        for candidate in candidates:
            if _deadline.ACTIVE:
                _deadline.check()
            values.append(self.evaluate(candidate.to_query()))
        return values, len(values)

    def ask(self, query: Union[str, Query]) -> bool:
        """Truth value of a proposition (§2.7)."""
        return self._truth(query, proposition=True)

    def succeeds(self, query: Union[str, Query]) -> bool:
        """True if the query has a non-empty value.

        Probing (§5) is built on this predicate: a query *fails* when
        it succeeds for no tuple.
        """
        return self._truth(query, proposition=False)

    def _truth(self, query: Union[str, Query], proposition: bool) -> bool:
        """Shared ``ask``/``succeeds`` path — only the proposition
        requirement differs."""
        query = self._resolve(query)
        if proposition:
            require_proposition(query)
        check_safety(query.formula)
        return any(True for _ in self.solutions(query.formula, {}))

    # ------------------------------------------------------------------
    # Formula solving
    # ------------------------------------------------------------------
    def solutions(self, formula: Formula,
                  binding: Optional[Binding] = None) -> Iterator[Binding]:
        """All bindings of the formula's free variables that satisfy it,
        each extending the given partial binding."""
        binding = binding or {}
        if isinstance(formula, Atom):
            yield from self.view.solutions(formula.pattern, binding)
            return
        if isinstance(formula, And):
            yield from self._solve_and(list(formula.parts), binding)
            return
        if isinstance(formula, Or):
            yield from self._solve_or(formula, binding)
            return
        if isinstance(formula, Exists):
            yield from self._solve_exists(formula, binding)
            return
        if isinstance(formula, ForAll):
            yield from self._solve_forall(formula, binding)
            return
        raise QueryError(f"unknown formula type: {type(formula).__name__}")

    def _solve_and(self, parts, binding: Binding) -> Iterator[Binding]:
        if not parts:
            yield binding
            return
        # Deadline checkpoint: entered once per conjunct selection, i.e.
        # once per partial binding — frequent enough to bound latency,
        # rare enough not to show up in profiles.
        if _deadline.ACTIVE:
            _deadline.check()
        bound = set(binding)
        index, cost = choose_conjunct(parts, bound, self.view)
        first = parts[index]
        rest = parts[:index] + parts[index + 1:]
        if _obs.ENABLED:
            yield from self._solve_and_traced(first, rest, binding, cost)
            return
        for extended in self.solutions(first, binding):
            yield from self._solve_and(rest, extended)

    def _solve_and_traced(self, first, rest, binding: Binding,
                          cost: float) -> Iterator[Binding]:
        """One conjunct step with plan-vs-actual recording: the
        planner's estimate at selection time next to the rows the
        conjunct actually produced under this binding."""
        rows = 0
        try:
            for extended in self.solutions(first, binding):
                rows += 1
                yield from self._solve_and(rest, extended)
        finally:
            _obs.TELEMETRY.record_conjunct(str(first), cost, rows)

    def _solve_or(self, formula: Or, binding: Binding) -> Iterator[Binding]:
        # Solutions from different disjuncts may repeat; deduplicate on
        # the formula's free variables so {Q} stays a set.
        free = formula.free_variables()
        seen = set()
        for part in formula.parts:
            part_free = part.free_variables()
            missing = free - part_free - set(binding)
            for extended in self.solutions(part, binding):
                if missing:
                    # A disjunct that leaves some of the formula's free
                    # variables unbound cannot produce a tuple; safety
                    # checking rejects this statically, but guard here
                    # for directly built formulas.
                    raise QueryError(
                        f"disjunct {part} does not bind"
                        f" {[v.name for v in missing]}")
                key = tuple(sorted(
                    (v.name, extended[v]) for v in free if v in extended))
                if key not in seen:
                    seen.add(key)
                    yield extended

    def _solve_exists(self, formula: Exists,
                      binding: Binding) -> Iterator[Binding]:
        if _obs.ENABLED:
            _obs.TELEMETRY.count("query.exists.evals")
        variable = formula.variable
        inner = dict(binding)
        inner.pop(variable, None)  # an outer binding of x is shadowed
        seen = set()
        outer_vars = formula.free_variables()
        for witness in self.solutions(formula.body, inner):
            # Project away the quantified variable *and* any variables
            # internal to the body, so nothing leaks into sibling
            # conjuncts that happen to reuse a variable name.
            projected = {
                v: value for v, value in witness.items() if v in outer_vars
            }
            projected.update(binding)
            key = tuple(sorted(
                (v.name, projected[v]) for v in outer_vars
                if v in projected))
            if key not in seen:
                seen.add(key)
                yield projected

    def _solve_forall(self, formula: ForAll,
                      binding: Binding) -> Iterator[Binding]:
        # ∀ is a filter: every other free variable must already be
        # bound, and the body must hold for every entity in the active
        # domain substituted for the quantified variable.
        unbound = formula.free_variables() - set(binding)
        if unbound:
            raise QueryError(
                "∀ reached with unbound free variables"
                f" {sorted(v.name for v in unbound)}; conjoin a"
                " generating template for them (range restriction)")
        variable = formula.variable
        domain = self.view.entities()
        if _obs.ENABLED:
            # The ∀ filter scans the whole active domain per candidate
            # binding; the counter totals entities scanned, the gauge
            # keeps the domain size itself.
            _obs.TELEMETRY.count("query.forall.evals")
            _obs.TELEMETRY.count("query.forall.domain_scanned", len(domain))
            _obs.TELEMETRY.gauge("query.forall.domain_size", len(domain))
        for entity in domain:
            candidate = dict(binding)
            candidate[variable] = entity
            if not any(True for _ in self.solutions(formula.body, candidate)):
                return
        yield binding


# ----------------------------------------------------------------------
# Safety (range restriction)
# ----------------------------------------------------------------------
def limited_variables(formula: Formula) -> FrozenSet[Variable]:
    """Free variables guaranteed to be bound by evaluating the formula.

    A variable is *limited* if every evaluation path binds it: atoms
    bind their variables; a conjunction limits the union of its parts;
    a disjunction only the intersection; quantifiers remove their own
    variable; a ∀ body limits nothing for the outer formula (it is a
    filter)."""
    if isinstance(formula, Atom):
        return formula.pattern.variable_set()
    if isinstance(formula, And):
        result: FrozenSet[Variable] = frozenset()
        for part in formula.parts:
            result |= limited_variables(part)
        return result
    if isinstance(formula, Or):
        parts = [limited_variables(p) for p in formula.parts]
        result = parts[0]
        for part in parts[1:]:
            result &= part
        return result
    if isinstance(formula, Exists):
        return limited_variables(formula.body) - {formula.variable}
    if isinstance(formula, ForAll):
        return frozenset()
    raise QueryError(f"unknown formula type: {type(formula).__name__}")


def require_proposition(query: Query) -> None:
    """``ask`` takes closed formulas only (§2.7).

    Raises:
        QueryError: if the query has free variables.
    """
    if not query.is_proposition:
        raise QueryError(
            f"not a proposition — free variables:"
            f" {[v.name for v in query.variables]}")


def check_safety(formula: Formula) -> None:
    """Reject queries whose value is not generated by their own
    templates (the classic range-restriction condition).

    Raises:
        QueryError: if some free variable is not limited.
    """
    free = formula.free_variables()
    limited = limited_variables(formula)
    unsafe = free - limited
    if unsafe:
        names = sorted(v.name for v in unsafe)
        raise QueryError(
            f"unsafe query: free variables {names} are not limited by"
            " any template (every free variable must appear in a"
            " template on every disjunctive branch)")
    _check_forall_bodies(formula, frozenset())


def _check_forall_bodies(formula: Formula,
                         enclosing: FrozenSet[Variable]) -> None:
    """Every ∀'s outer free variables must be limited by the enclosing
    conjunctive context, or evaluation will raise at runtime."""
    if isinstance(formula, Atom):
        return
    if isinstance(formula, (And, Or)):
        limited = enclosing
        if isinstance(formula, And):
            limited = enclosing | limited_variables(formula)
        for part in formula.parts:
            _check_forall_bodies(part, limited)
        return
    if isinstance(formula, Exists):
        _check_forall_bodies(formula.body, enclosing | {formula.variable})
        return
    if isinstance(formula, ForAll):
        unbound = formula.free_variables() - enclosing
        if unbound:
            names = sorted(v.name for v in unbound)
            raise QueryError(
                f"∀ body refers to {names}, which no surrounding"
                " template generates (range restriction)")
        _check_forall_bodies(formula.body, enclosing | {formula.variable})
        return
    raise QueryError(f"unknown formula type: {type(formula).__name__}")
