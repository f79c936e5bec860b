"""Mathematical facts as computed relations (paper §3.6).

For every two number entities exactly one of ``(E1, <, E2)`` /
``(E1, >, E2)`` holds, and for every two entities exactly one of
``(E1, =, E2)`` / ``(E1, ≠, E2)``.  ``≤`` and ``≥`` are "defined
through simple inference rules" in the paper; here they are computed
directly.

Semantics of equality: two entities are equal if they are the same
name, or if both are numeric and denote the same number (so
``$25,000 = 25000`` — the paper's dollar spellings compare by value).

Enumeration: when one or both sides of a comparator are free, the
relation enumerates over the active domain (numeric entities only, for
the order comparators).  The domain is finite, so the paper's
"infinitely many mathematical facts" never materialize.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, List, Tuple

from ..core.entities import EQ, GE, GT, LE, LT, NE, numeric_value
from ..core.facts import Fact, Template, Variable
from ..core.store import FactStore
from .computed import ComputedRelation

_ORDER_OPS: dict = {
    LT: operator.lt,
    GT: operator.gt,
    LE: operator.le,
    GE: operator.ge,
}


def entities_equal(left: str, right: str) -> bool:
    """The paper's ``=`` relation over entity names (value-aware for
    numbers)."""
    if left == right:
        return True
    left_value = numeric_value(left)
    if left_value is None:
        return False
    right_value = numeric_value(right)
    return right_value is not None and left_value == right_value


def compare(relationship: str, left: str, right: str) -> bool:
    """Truth of ``(left, relationship, right)`` for a math comparator.

    Order comparators are false (not an error) when either side is
    non-numeric: ``(JOHN, >, 20000)`` simply matches nothing, mirroring
    "the database includes the facts ... (25000, >, 20000)" — there is
    no such fact for a non-number.
    """
    if relationship == EQ:
        return entities_equal(left, right)
    if relationship == NE:
        return not entities_equal(left, right)
    op = _ORDER_OPS[relationship]
    left_value = numeric_value(left)
    if left_value is None:
        return False
    right_value = numeric_value(right)
    if right_value is None:
        return False
    return op(left_value, right_value)


class MathRelation(ComputedRelation):
    """The six comparators, as one computed relation."""

    HANDLED = frozenset(_ORDER_OPS) | {EQ, NE}
    TRIGGERS = (frozenset(), HANDLED, frozenset())

    # ------------------------------------------------------------------
    def _domain(self, store: FactStore, relationship: str) -> List[str]:
        """Candidate entities for a free side of ``relationship``."""
        entities = store.entities()
        if relationship in (EQ, NE):
            return sorted(entities)
        return sorted(e for e in entities if numeric_value(e) is not None)

    def facts(self, pattern: Template, store: FactStore) -> Iterator[Fact]:
        relationship = pattern.relationship
        source, target = pattern.source, pattern.target
        source_free = isinstance(source, Variable)
        target_free = isinstance(target, Variable)

        if not source_free and not target_free:
            if compare(relationship, source, target):
                yield Fact(source, relationship, target)
            return

        # ``(x, =, JOHN)`` binds directly without enumeration.
        if relationship == EQ:
            if source_free and not target_free:
                yield Fact(target, relationship, target)
                return
            if target_free and not source_free:
                yield Fact(source, relationship, source)
                return

        domain = self._domain(store, relationship)
        if source_free and target_free:
            same_variable = source == target
            for left in domain:
                if same_variable:
                    if compare(relationship, left, left):
                        yield Fact(left, relationship, left)
                    continue
                for right in domain:
                    if compare(relationship, left, right):
                        yield Fact(left, relationship, right)
            return

        if source_free:
            for left in domain:
                if compare(relationship, left, target):
                    yield Fact(left, relationship, target)
            return

        for right in domain:
            if compare(relationship, source, right):
                yield Fact(source, relationship, right)

    def estimate(self, pattern: Template, store: FactStore) -> int:
        free = sum(
            1 for c in (pattern.source, pattern.target)
            if isinstance(c, Variable))
        if free == 0:
            return 1
        if pattern.relationship == EQ:
            return 1 if free == 1 else len(store.entities())
        return max(1, len(store.entities())) ** free
