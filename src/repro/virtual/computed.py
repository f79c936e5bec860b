"""Computed (virtual) relations.

Paper §3.6: "it is obvious that we may assume the existence of all
relevant mathematical relationships, without actually storing them as
ordinary facts."  This module provides the mechanism: a
:class:`ComputedRelation` contributes facts at match time, and a
:class:`VirtualRegistry` merges any number of them behind the same
template-matching interface the :class:`~repro.core.store.FactStore`
offers.

Ground rule: a computed relation only contributes when the template's
*relationship position is ground* and names that relation.  A fully
open template such as ``(x, y, z)`` therefore matches only stored and
derived facts — otherwise every navigation table would drown in the
infinitely many mathematical facts the paper assumes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..core.facts import Binding, Fact, Template
from ..core.store import FactStore


class ComputedRelation:
    """Interface for a virtually present family of facts.

    Subclasses override :meth:`handles` and :meth:`facts`;
    :meth:`estimate` feeds the query planner.
    """

    def handles(self, pattern: Template) -> bool:
        """True if this relation can contribute matches for ``pattern``."""
        raise NotImplementedError

    def facts(self, pattern: Template, store: FactStore) -> Iterator[Fact]:
        """Yield the virtual facts matching ``pattern``.

        ``store`` supplies the active domain (``store.entities()``) for
        relations that enumerate over it.  Yielded facts must actually
        match ``pattern`` (the registry does not re-check).
        """
        raise NotImplementedError

    def estimate(self, pattern: Template, store: FactStore) -> int:
        """Upper bound on the number of facts :meth:`facts` will yield."""
        variables = pattern.variables()
        if not variables:
            return 1
        return max(1, len(store.entities())) ** len(set(variables))


class VirtualRegistry:
    """An ordered collection of computed relations."""

    def __init__(self, relations: Iterable[ComputedRelation] = ()):
        self._relations: List[ComputedRelation] = list(relations)

    def register(self, relation: ComputedRelation) -> None:
        """Add a computed relation to the registry."""
        self._relations.append(relation)

    def __iter__(self) -> Iterator[ComputedRelation]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def match(self, pattern: Template, store: FactStore) -> Iterator[Fact]:
        """All virtual facts matching ``pattern``, deduplicated."""
        seen = set()
        for relation in self._relations:
            if not relation.handles(pattern):
                continue
            for virtual_fact in relation.facts(pattern, store):
                if virtual_fact not in seen:
                    seen.add(virtual_fact)
                    yield virtual_fact

    def estimate(self, pattern: Template, store: FactStore) -> int:
        """Summed planner estimate over contributing relations."""
        return sum(
            relation.estimate(pattern, store) for relation in self._relations
            if relation.handles(pattern))


class FactView:
    """Store ∪ virtual relations, behind one matching interface.

    This is what queries, browsing, and integrity checking run against:
    the materialized closure plus the paper's assumed-but-not-stored
    facts.  The view is read-only.
    """

    def __init__(self, store: FactStore, virtual: Optional[VirtualRegistry] = None):
        self.store = store
        self.virtual = virtual if virtual is not None else VirtualRegistry()

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, pattern: Template,
              binding: Optional[Binding] = None) -> Iterator[Fact]:
        """All facts — stored or virtual — matching ``pattern``."""
        if binding:
            pattern = pattern.substitute(binding)
        seen = set()
        for stored_fact in self.store.match(pattern):
            seen.add(stored_fact)
            yield stored_fact
        for virtual_fact in self.virtual.match(pattern, self.store):
            if virtual_fact not in seen:
                yield virtual_fact

    def solutions(self, pattern: Template,
                  binding: Optional[Binding] = None) -> Iterator[Binding]:
        """All extended bindings under which ``pattern`` matches."""
        base = binding or {}
        substituted = pattern.substitute(base) if base else pattern
        for matched in self.match(substituted):
            extended = substituted.match(matched, base)
            if extended is not None:
                yield extended

    def __contains__(self, fact: Fact) -> bool:
        if fact in self.store:
            return True
        pattern = Template(*fact)
        return any(True for _ in self.virtual.match(pattern, self.store))

    # ------------------------------------------------------------------
    # Introspection (delegated to the store)
    # ------------------------------------------------------------------
    def entities(self):
        """The active domain (stored entities only — the virtual
        entities ``Δ``/``∇`` and the unbounded numbers are excluded, so
        quantifiers and ``≠`` stay finite)."""
        return self.store.entities()

    def relationships(self):
        return self.store.relationships()

    def has_entity(self, entity: str) -> bool:
        return self.store.has_entity(entity)

    def __len__(self) -> int:
        return len(self.store)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.store)

    @property
    def exact_counts(self) -> bool:
        """True when the underlying store's ``count_estimate`` returns
        exact cardinalities (interned columnar stores: index length
        lookups) rather than candidate-set upper bounds.  The planner
        trusts exact counts directly instead of applying its sampling
        fudge factors."""
        return bool(getattr(self.store, "count_estimate_exact", False))

    def count_estimate(self, pattern: Template,
                       binding: Optional[Binding] = None) -> int:
        """Planner estimate: stored candidates + virtual contributions."""
        if binding:
            pattern = pattern.substitute(binding)
        return (self.store.count_estimate(pattern)
                + self.virtual.estimate(pattern, self.store))
