"""Conjunct ordering by estimated selectivity.

The evaluator solves a conjunction one part at a time, threading
bindings left to right.  Order matters enormously: starting with
``(x, ∈, EMPLOYEE)`` before ``(x, EARNS, y)`` before ``(y, >, 20000)``
touches a handful of facts, while the reverse order enumerates numeric
pairs first.  This planner re-ranks the remaining conjuncts *after
every binding step*, so each join starts from the currently cheapest
part — a greedy dynamic plan, which is plenty for heap-scale data and
keeps virtual relations (whose cost collapses once one side is bound)
well-behaved.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ..core.facts import Binding, Variable
from ..virtual.computed import FactView
from .ast import And, Atom, Exists, ForAll, Formula, Or

#: Planner cost assigned to quantified sub-formulas, which are opaque
#: to the estimator; they run after anything with a real estimate.
OPAQUE_COST = 10 ** 9


def estimate_cost(part: Formula, bound: Set[Variable],
                  view: FactView) -> float:
    """Estimated result size of one conjunct given bound variables."""
    if isinstance(part, Atom):
        pattern = part.pattern
        # Pretend bound variables are constants by substituting a
        # sentinel binding shape: count_estimate only needs to know
        # which positions are ground, so substitute any entity.
        sentinel: Binding = {
            v: "\x00bound\x00" for v in pattern.variable_set() & bound
        }
        probe = pattern.substitute(sentinel) if sentinel else pattern
        free_positions = sum(
            1 for c in probe if isinstance(c, Variable))
        if free_positions == 0:
            return 0.5  # membership test: cheapest possible
        if not sentinel and getattr(view, "exact_counts", False):
            # Interned columnar stores answer count_estimate exactly
            # (CSR index length lookups), so when no position is a
            # bound-variable sentinel the estimate *is* the result
            # size — rank on it directly, no fudge factors.  An exact
            # zero deliberately ranks before the 0.5 membership test:
            # starting from a provably empty conjunct prunes the whole
            # conjunction immediately.
            return float(view.count_estimate(pattern))
        # The sentinel never occurs in the store, which would make the
        # index estimate 0 and hide the true per-binding fanout; use
        # the un-substituted estimate scaled down per bound variable.
        # (Sampling fallback: also the exact-count path's behavior for
        # patterns with bound variables, where the true per-binding
        # fanout is unknowable from global index lengths alone.)
        raw = view.count_estimate(pattern)
        return raw / (10.0 ** len(sentinel)) + free_positions * 0.1
    if isinstance(part, And):
        return min(
            estimate_cost(p, bound, view) for p in part.parts)
    if isinstance(part, Or):
        return sum(
            estimate_cost(p, bound, view) for p in part.parts)
    if isinstance(part, (Exists, ForAll)):
        return OPAQUE_COST
    return OPAQUE_COST


def is_deferred(part: Formula, bound: Set[Variable]) -> bool:
    """True for quantified parts that should wait for their free
    variables to be bound by some other conjunct.

    A ``∀`` with unbound free variables *raises* if evaluated (it is a
    filter); an ``∃`` with unbound free variables may contain such a
    ``∀`` in its body and is cheaper once its context is ground either
    way.  Deferring both fixes the planner bug where every part costs
    :data:`OPAQUE_COST` and the tie-break picked a quantifier before
    the generator that would have bound its variables.
    """
    return (isinstance(part, (Exists, ForAll))
            and not part.free_variables() <= bound)


def conjunct_rank(part: Formula, bound: Set[Variable],
                  view: FactView) -> Tuple[Tuple[int, int, float], float]:
    """Ordering rank for one conjunct: ``(rank tuple, estimated cost)``.

    Ranks sort generators (and quantifiers whose free variables are
    bound) before deferred quantifiers, deferred ``∃`` (which can still
    generate) before deferred ``∀`` (which cannot), and by estimated
    cost within each class.
    """
    cost = estimate_cost(part, bound, view)
    if is_deferred(part, bound):
        return (1, 1 if isinstance(part, ForAll) else 0, cost), cost
    return (0, 0, cost), cost


def choose_conjunct(parts: Sequence[Formula], bound: Set[Variable],
                    view: FactView) -> Tuple[int, float]:
    """The cheapest remaining conjunct: ``(index, estimated cost)``.

    The cost is returned alongside the index so the instrumented
    evaluator can record plan-vs-actual without re-estimating.
    Quantified parts whose free variables are not yet bound rank after
    every generator regardless of cost (see :func:`is_deferred`), so a
    valid query never hits the runtime "∀ reached with unbound free
    variables" error just because every estimate was opaque.
    """
    best_index = 0
    best_cost = float("inf")
    best_rank = None
    for index, part in enumerate(parts):
        rank, cost = conjunct_rank(part, bound, view)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best_cost = cost
            best_index = index
    return best_index, best_cost


def next_conjunct(parts: Sequence[Formula], bound: Set[Variable],
                  view: FactView) -> int:
    """Index of the cheapest remaining conjunct to evaluate next."""
    return choose_conjunct(parts, bound, view)[0]


def join_order(parts: Sequence[Formula], bound: Set[Variable],
               view: FactView) -> List[int]:
    """The greedy static order of a conjunction, as indices into
    ``parts``: repeatedly the best-ranked remaining part under what the
    earlier ones bind (the first listed wins a tie).  The compiled
    engine lowers a conjunction in this order, and a retraction wave
    groups its candidates by it."""
    if len(parts) == 1:
        return [0]
    remaining = list(range(len(parts)))
    bound = set(bound)
    order: List[int] = []
    while remaining:
        best_index, best_rank = remaining[0], None
        for index in remaining:
            rank, _cost = conjunct_rank(parts[index], bound, view)
            if best_rank is None or rank < best_rank:
                best_index, best_rank = index, rank
        remaining.remove(best_index)
        order.append(best_index)
        bound |= parts[best_index].free_variables()
    return order


def order_conjuncts(parts: Sequence[Formula], bound: Set[Variable],
                    view: FactView) -> List[Formula]:
    """A full greedy static order (used by tests and EXPLAIN output);
    the evaluator itself re-plans dynamically per binding."""
    return [parts[index] for index in join_order(parts, bound, view)]
