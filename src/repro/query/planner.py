"""Conjunct ordering by estimated selectivity.

Both engines solve a conjunction one part at a time, threading
bindings left to right.  Order matters enormously: starting with
``(x, ∈, EMPLOYEE)`` before ``(x, EARNS, y)`` before ``(y, >, 20000)``
touches a handful of facts, while the reverse order enumerates numeric
pairs first.  The ranking is greedy: the next part is the cheapest of
those left under what the earlier ones bind, which is plenty for
heap-scale data and keeps virtual relations (whose cost collapses once
one side is bound) well-behaved.

The reference engine (:mod:`repro.query.evaluate`) asks
:func:`choose_conjunct` again after every binding step — a dynamic
plan.  The compiled engine (:mod:`repro.query.compile`) ranks once per
lowering, through one :class:`Estimates`: what the estimator needs of
an atom is worked out once, so ranking a conjunction under growing
bound sets is arithmetic and costs one count lookup per distinct atom.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..core.facts import Template, Variable
from ..obs import telemetry as _obs
from ..virtual.computed import FactView
from .ast import And, Atom, Exists, ForAll, Formula, Or

#: Planner cost assigned to quantified sub-formulas, which are opaque
#: to the estimator; they run after anything with a real estimate.
OPAQUE_COST = 10 ** 9


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


class Estimates:
    """The estimator over one view, for as long as one plan is lowered
    and run (or one retraction wave grouped, or one public call made).

    :func:`estimate_cost` needs three things of an atom: where its
    variables occur, which they are, and the view's count of the
    template as written (bound variables are never substituted — a
    placeholder would match nothing and hide the per-binding fanout).
    None depends on the bound set, so each is worked out once per
    distinct template and the cost under any bound set is arithmetic.
    """

    __slots__ = ("view", "exact", "_atoms")

    def __init__(self, view: FactView):
        self.view = view
        self.exact = bool(getattr(view, "exact_counts", False))
        #: template -> [variable occurrences, their set, the view's
        #: count (``None`` until a cost needs it)]
        self._atoms: Dict[Template, list] = {}

    def _facts(self, pattern: Template) -> list:
        facts = self._atoms.get(pattern)
        if facts is None:
            occurrences = pattern.variables()
            facts = self._atoms[pattern] = [
                occurrences, frozenset(occurrences), None]
        return facts

    def count(self, pattern: Template) -> int:
        """``view.count_estimate(pattern)``, asked once."""
        facts = self._facts(pattern)
        if facts[2] is None:
            facts[2] = self.view.count_estimate(pattern)
            if _obs.ENABLED:
                _obs.TELEMETRY.count("planner.count_estimates")
        return facts[2]

    def variables(self, part: Formula) -> FrozenSet[Variable]:
        """``part.free_variables()`` — an atom's from what is already
        worked out."""
        if isinstance(part, Atom):
            return self._facts(part.pattern)[1]
        return part.free_variables()

    def cost(self, part: Formula, bound: Set[Variable]) -> float:
        """Estimated result size of one conjunct given bound variables."""
        if isinstance(part, Atom):
            occurrences, variables, count = self._facts(part.pattern)
            free_positions = 0
            for variable in occurrences:
                if variable not in bound:
                    free_positions += 1
            if free_positions == 0:
                return 0.5  # membership test: cheapest possible
            if count is None:
                count = self.count(part.pattern)
            bound_variables = len(variables & bound)
            if not bound_variables and self.exact:
                # Interned columnar stores answer count_estimate exactly
                # (CSR index length lookups), so when no variable is
                # bound the estimate *is* the result size — rank on it
                # directly, no fudge factors.  An exact zero
                # deliberately ranks before the 0.5 membership test:
                # starting from a provably empty conjunct prunes the
                # whole conjunction immediately.
                return float(count)
            # The true per-binding fanout is unknowable from global
            # index lengths alone: scale the unbound count down per
            # bound variable.  (Also the sampling fallback of stores
            # without exact counts.)
            return (count / (10.0 ** bound_variables)
                    + free_positions * 0.1)
        if isinstance(part, And):
            return min(self.cost(p, bound) for p in part.parts)
        if isinstance(part, Or):
            return sum(self.cost(p, bound) for p in part.parts)
        return OPAQUE_COST

    def rank(self, part: Formula, bound: Set[Variable]
             ) -> Tuple[Tuple[int, int, float], float]:
        """Ordering rank for one conjunct: ``(rank tuple, estimated
        cost)``.

        Ranks sort generators (and quantifiers whose free variables are
        bound) before deferred quantifiers, deferred ``∃`` (which can
        still generate) before deferred ``∀`` (which cannot), and by
        estimated cost within each class.
        """
        cost = self.cost(part, bound)
        if is_deferred(part, bound):
            return (1, 1 if isinstance(part, ForAll) else 0, cost), cost
        return (0, 0, cost), cost

    def join_order(self, parts: Sequence[Formula],
                   bound: Set[Variable]) -> List[int]:
        """The greedy static order of a conjunction, as indices into
        ``parts``: repeatedly the best-ranked remaining part under what
        the earlier ones bind (the first listed wins a tie).  The
        compiled engine lowers a conjunction in this order, and a
        retraction wave groups its candidates by it."""
        if len(parts) == 1:
            return [0]
        remaining = list(range(len(parts)))
        bound = set(bound)
        order: List[int] = []
        while remaining:
            best_index, best_rank = remaining[0], None
            for index in remaining:
                rank, _cost = self.rank(parts[index], bound)
                if best_rank is None or rank < best_rank:
                    best_index, best_rank = index, rank
            remaining.remove(best_index)
            order.append(best_index)
            bound |= self.variables(parts[best_index])
        return order


def estimate_cost(part: Formula, bound: Set[Variable],
                  view: FactView) -> float:
    """Estimated result size of one conjunct given bound variables."""
    return Estimates(view).cost(part, bound)


def conjunct_rank(part: Formula, bound: Set[Variable],
                  view: FactView) -> Tuple[Tuple[int, int, float], float]:
    """:meth:`Estimates.rank` of one conjunct over ``view``."""
    return Estimates(view).rank(part, bound)


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
    estimates = Estimates(view)
    best_index = 0
    best_cost = float("inf")
    best_rank = None
    for index, part in enumerate(parts):
        rank, cost = estimates.rank(part, bound)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best_cost = cost
            best_index = index
    return best_index, best_cost


def next_conjunct(parts: Sequence[Formula], bound: Set[Variable],
                  view: FactView) -> int:
    """Index of the cheapest remaining conjunct to evaluate next."""
    return choose_conjunct(parts, bound, view)[0]


def order_conjuncts(parts: Sequence[Formula], bound: Set[Variable],
                    view: FactView) -> List[Formula]:
    """A full greedy static order — the one the compiled engine lowers
    a conjunction in (used by tests and EXPLAIN output).  The reference
    engine does not fix an order: it asks :func:`choose_conjunct` again
    per binding."""
    return [parts[index]
            for index in Estimates(view).join_order(parts, bound)]
