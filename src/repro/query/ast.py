"""The query language's abstract syntax (paper §2.7).

"Templates are the only predicates, and each predicate is an atomic
formula.  If A and B are formulas and x is a variable, then (A ∧ B),
(A ∨ B), (∃x)A and (∀x)A are formulas."

A :class:`Query` is a formula together with the order of its free
variables; its value is the set of tuples satisfying it.  There is no
negation operator — per the paper, negative assertions use
complementary relationships such as ``≠``.  The static checks every
evaluation starts from — range restriction (:func:`check_safety`) and
the proposition requirement of ``ask`` — are defined here, over these
types.

Example::

    from repro.query import parse_query

    q = parse_query("(x, ∈, EMPLOYEE) and (x, EARNS, y)")
    assert str(q).startswith("Q(x, y)")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from ..core.errors import QueryError
from ..core.facts import Template, Variable


class Formula:
    """Base class of all well-formed formulas; each defines
    ``free_variables()``."""

    # Convenience combinators so formulas compose fluently in client
    # code and examples: ``atom1 & atom2 | atom3``.
    def __and__(self, other: "Formula") -> "And":
        return And(_flatten(And, (self, other)))

    def __or__(self, other: "Formula") -> "Or":
        return Or(_flatten(Or, (self, other)))


def _flatten(kind, parts: Iterable[Formula]) -> Tuple[Formula, ...]:
    flattened = []
    for part in parts:
        if isinstance(part, kind):
            flattened.extend(part.parts)
        else:
            flattened.append(part)
    return tuple(flattened)


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic formula: a template predicate."""

    pattern: Template

    def free_variables(self) -> FrozenSet[Variable]:
        return self.pattern.variable_set()

    def __str__(self) -> str:
        return repr(self.pattern)


@dataclass(frozen=True)
class And(Formula):
    """Conjunction of two or more formulas."""

    parts: Tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 1:
            raise QueryError("conjunction needs at least one part")

    def free_variables(self) -> FrozenSet[Variable]:
        result: FrozenSet[Variable] = frozenset()
        for part in self.parts:
            result |= part.free_variables()
        return result

    def __str__(self) -> str:
        return "(" + " ∧ ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction of two or more formulas."""

    parts: Tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 1:
            raise QueryError("disjunction needs at least one part")

    def free_variables(self) -> FrozenSet[Variable]:
        result: FrozenSet[Variable] = frozenset()
        for part in self.parts:
            result |= part.free_variables()
        return result

    def __str__(self) -> str:
        return "(" + " ∨ ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Exists(Formula):
    """(∃x) A — existential quantification."""

    variable: Variable
    body: Formula

    def free_variables(self) -> FrozenSet[Variable]:
        return self.body.free_variables() - {self.variable}

    def __str__(self) -> str:
        return f"(∃{self.variable.name}) {self.body}"


@dataclass(frozen=True)
class ForAll(Formula):
    """(∀x) A — universal quantification over the active domain."""

    variable: Variable
    body: Formula

    def free_variables(self) -> FrozenSet[Variable]:
        return self.body.free_variables() - {self.variable}

    def __str__(self) -> str:
        return f"(∀{self.variable.name}) {self.body}"


def atom(source, relationship, target) -> Atom:
    """Shorthand: build an :class:`Atom` from three components."""
    from ..core.facts import template
    return Atom(template(source, relationship, target))


def exists(variables, body: Formula) -> Formula:
    """Wrap ``body`` in one :class:`Exists` per variable."""
    if isinstance(variables, Variable):
        variables = (variables,)
    result = body
    for variable in reversed(tuple(variables)):
        result = Exists(variable, result)
    return result


def forall(variables, body: Formula) -> Formula:
    """Wrap ``body`` in one :class:`ForAll` per variable."""
    if isinstance(variables, Variable):
        variables = (variables,)
    result = body
    for variable in reversed(tuple(variables)):
        result = ForAll(variable, result)
    return result


@dataclass(frozen=True)
class Query:
    """A formula with a fixed order on its free variables (§2.7).

    A query with no free variables is a *proposition*: its value is a
    truth value rather than a set of tuples.
    """

    formula: Formula
    variables: Tuple[Variable, ...]

    @staticmethod
    def of(formula: Formula,
           variables: Optional[Iterable[Variable]] = None) -> "Query":
        """Build a query; variable order defaults to sorted-by-name."""
        free = formula.free_variables()
        if variables is None:
            ordered = tuple(sorted(free, key=lambda v: v.name))
        else:
            ordered = tuple(variables)
            declared = set(ordered)
            if declared != free:
                missing = {v.name for v in free - declared}
                extra = {v.name for v in declared - free}
                raise QueryError(
                    "query variable list must equal the formula's free"
                    f" variables (missing: {sorted(missing)},"
                    f" extra: {sorted(extra)})")
            if len(ordered) != len(declared):
                raise QueryError("duplicate variable in query variable list")
        return Query(formula=formula, variables=ordered)

    @property
    def is_proposition(self) -> bool:
        """True for closed formulas (§2.7)."""
        return not self.variables

    def __str__(self) -> str:
        if self.is_proposition:
            return str(self.formula)
        names = ", ".join(v.name for v in self.variables)
        return f"Q({names}) = {self.formula}"


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
