"""Computed (virtual) relations.

Paper §3.6: "it is obvious that we may assume the existence of all
relevant mathematical relationships, without actually storing them as
ordinary facts."  This module provides the mechanism: a
:class:`ComputedRelation` contributes facts at match time, and a
:class:`VirtualRegistry` merges any number of them behind the same
template-matching interface the :class:`~repro.core.store.FactStore`
offers.

Trigger rule: a computed relation contributes to a template only when
some *ground* position of the template holds a name the relation
declares for that position (:attr:`ComputedRelation.TRIGGERS`) — a
comparator or ``≺`` as relationship, ``∇`` as source, ``Δ`` as
relationship or target.  So ``(∇, r, t)`` and ``(s, r, Δ)`` trigger
endpoint witnessing with ``r`` a variable, while a variable triggers
nothing: a fully open template such as ``(x, y, z)`` matches only
stored and derived facts — otherwise every navigation table would drown
in the infinitely many mathematical facts the paper assumes.  A
relation that declares no triggers decides in its own
:meth:`~ComputedRelation.handles`.
"""

from __future__ import annotations

from typing import (Callable, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from ..core import deadline as _deadline
from ..core.facts import Binding, Fact, Template
from ..core.store import FactStore

#: Key interval between deadline checkpoints where the compiled
#: executor asks a computed relation key by key.
CHECK_KEYS = 1024


class ComputedRelation:
    """Interface for a virtually present family of facts.

    Subclasses declare :attr:`TRIGGERS` (or override :meth:`handles`)
    and implement ``facts(pattern, store)``: the virtual facts matching
    ``pattern``, each of which must actually match it (the registry
    does not re-check); ``store`` supplies the active domain
    (``store.entities()``) for relations that enumerate over it.
    :meth:`estimate` feeds the query planner, and :meth:`extend_ids`
    answers the compiled executor.
    """

    #: Per position — source, relationship, target — the names that
    #: trigger this relation.  The compiled executor tests them on ids,
    #: join key by join key; ``None`` leaves the decision to an
    #: overriding :meth:`handles`, asked on names for every key.
    TRIGGERS: Optional[Tuple[FrozenSet[str], ...]] = None

    def handles(self, pattern: Template) -> bool:
        """True if this relation can contribute matches for ``pattern``:
        some position holds a name :attr:`TRIGGERS` declares for it (a
        variable never equals a name)."""
        if self.TRIGGERS is None:
            raise NotImplementedError
        source, relationship, target = self.TRIGGERS
        return bool(source and pattern.source in source
                    or relationship and pattern.relationship in relationship
                    or target and pattern.target in target)

    def extend_ids(self, pattern: Template, key_of: Sequence[Optional[int]],
                   keys: List[tuple], opened: Optional[List[tuple]],
                   probe: Callable, codec, store: FactStore,
                   new_positions: List[int]) -> List[list]:
        """Per key, the extensions this relation adds to one atom of the
        compiled executor, as ids.

        ``keys`` are id tuples of the atom's bound variables, each one
        that triggers this relation (``key_of[p]``: the component that
        fills position ``p``, ``None`` where ``pattern`` holds a
        constant or a new variable); ``opened`` marks, per key, the
        positions that trigger it (``None`` when :attr:`TRIGGERS` is
        not declared).  An extension is the tuple of ids at
        ``new_positions``.  ``probe(opened, keys)`` answers keys from
        the stored facts with the ``opened`` positions left open.

        This form crosses the string boundary: decode the key, ask
        :meth:`handles` and ``facts`` on names (an undeclared
        relation is handed every key), re-check each fact against the
        template
        — the reference engine's ``view.solutions`` re-matches too, so
        a relation that yields a non-matching fact degrades identically
        under both engines — and encode the extensions through
        ``codec``.
        """
        found = []
        for n, key in enumerate(keys):
            if _deadline.ACTIVE and n % CHECK_KEYS == 0:
                _deadline.check()
            template = Template(*[c if k is None else codec.decode(key[k])
                                  for c, k in zip(pattern, key_of)])
            extensions = []
            if self.handles(template):
                for fact in self.facts(template, store):
                    if template.match(fact) is not None:
                        extensions.append(
                            tuple([codec.encode(fact[p])
                                   for p in new_positions]))
            found.append(extensions)
        return found

    def estimate(self, pattern: Template, store: FactStore) -> int:
        """Upper bound on the number of facts ``facts`` will yield.

        Every shipped relation overrides it; this is the bound a
        relation that declares none is planned with."""
        variables = pattern.variables()
        if not variables:
            return 1
        return max(1, len(store.entities())) ** len(set(variables))


class VirtualRegistry:
    """An ordered collection of computed relations."""

    def __init__(self, relations: Iterable[ComputedRelation] = ()):
        self._relations: List[ComputedRelation] = list(relations)

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
