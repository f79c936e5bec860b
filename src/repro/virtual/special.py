"""Virtual facts for the special entities ``≺``, ``Δ``, ``∇`` (§2.3).

Three families of facts are *represented* in every database without
being stored:

1. Generalization is reflexive: ``(E, ≺, E)`` for every entity.
2. ``Δ`` generalizes everything: ``(E, ≺, Δ)``; ``∇`` is generalized by
   everything: ``(∇, ≺, E)``.
3. ``Δ`` in relationship position is the generalization of every
   relationship (it follows from rule (1) applied with ``(r, ≺, Δ)``):
   ``(s, Δ, t)`` holds whenever *some* stored fact relates ``s`` to
   ``t``.  Probing relies on this when it weakens a relationship all
   the way to ``Δ`` (§5.2).
"""

from __future__ import annotations

from typing import Iterator

from ..core.entities import BOTTOM, ISA, TOP
from ..core.facts import Fact, Template, Variable
from ..core.store import FactStore
from .computed import ComputedRelation


class ReflexiveGeneralization(ComputedRelation):
    """``(E, ≺, E)``, ``(E, ≺, Δ)``, ``(∇, ≺, E)`` for the active
    domain plus the two virtual endpoints themselves."""

    def handles(self, pattern: Template) -> bool:
        return pattern.relationship == ISA

    def _domain(self, store: FactStore):
        domain = set(store.entities())
        domain.update((TOP, BOTTOM))
        return sorted(domain)

    def facts(self, pattern: Template, store: FactStore) -> Iterator[Fact]:
        source, target = pattern.source, pattern.target
        source_free = isinstance(source, Variable)
        target_free = isinstance(target, Variable)
        in_domain = (
            lambda e: e in (TOP, BOTTOM) or store.has_entity(e))

        if not source_free and not target_free:
            if not (in_domain(source) and in_domain(target)):
                return
            if source == target:
                yield Fact(source, ISA, target)
            elif target == TOP or source == BOTTOM:
                yield Fact(source, ISA, target)
            return

        if source_free and target_free:
            same_variable = source == target
            for entity in self._domain(store):
                yield Fact(entity, ISA, entity)
                if same_variable:
                    continue
                if entity != TOP:
                    yield Fact(entity, ISA, TOP)
                if entity != BOTTOM:
                    yield Fact(BOTTOM, ISA, entity)
            return

        if source_free:
            if not in_domain(target):
                return
            yield Fact(target, ISA, target)
            if target != BOTTOM:
                yield Fact(BOTTOM, ISA, target)
            if target == TOP:
                for entity in self._domain(store):
                    if entity != TOP:
                        yield Fact(entity, ISA, TOP)
            return

        # target free
        if not in_domain(source):
            return
        yield Fact(source, ISA, source)
        if source != TOP:
            yield Fact(source, ISA, TOP)
        if source == BOTTOM:
            for entity in self._domain(store):
                if entity != BOTTOM:
                    yield Fact(BOTTOM, ISA, entity)

    def estimate(self, pattern: Template, store: FactStore) -> int:
        free = sum(
            1 for c in (pattern.source, pattern.target)
            if isinstance(c, Variable))
        if free == 0:
            return 1
        if free == 1:
            component = (pattern.target
                         if isinstance(pattern.source, Variable)
                         else pattern.source)
            if component in (TOP, BOTTOM):
                return len(store.entities()) + 2
            return 2
        return 3 * (len(store.entities()) + 2)


class EndpointWitness(ComputedRelation):
    """Templates whose positions have been weakened to the hierarchy
    endpoints, witnessed by stored facts.

    Rule (1) makes the endpoints universal: ``∇ ≺ s`` gives
    ``(s,r,t) ⇒ (∇,r,t)``; ``r ≺ Δ`` gives ``(s,r,t) ⇒ (s,Δ,t)``; and
    ``t ≺ Δ`` gives ``(s,r,t) ⇒ (s,r,Δ)``.  So a template with ``∇`` as
    source / ``Δ`` as relationship / ``Δ`` as target (in any
    combination — retraction can weaken several positions) holds iff
    *some stored fact* witnesses the remaining positions.

    Only stored/derived facts witness the endpoints — the virtual
    mathematical facts do not, or every pair of numbers would be
    ``Δ``-related.

    This is the string form; the compiled executor answers the same
    question as a stored-fact probe with the endpoint position left
    open (``repro.query.exec._id_extensions``) and calls it only under
    a registry with a custom relation, where every key crosses the
    string boundary.
    """

    def handles(self, pattern: Template) -> bool:
        return (pattern.source == BOTTOM or pattern.relationship == TOP
                or pattern.target == TOP)

    @staticmethod
    def _probe(pattern: Template) -> Template:
        source = (Variable("__witness_s__")
                  if pattern.source == BOTTOM else pattern.source)
        relationship = (Variable("__witness_r__")
                        if pattern.relationship == TOP
                        else pattern.relationship)
        target = (Variable("__witness_t__")
                  if pattern.target == TOP else pattern.target)
        return Template(source, relationship, target)

    def facts(self, pattern: Template, store: FactStore) -> Iterator[Fact]:
        probe = self._probe(pattern)
        if pattern.is_ground():
            # Every witness projects to the pattern itself: the first
            # one decides.
            if any(True for _witness in store.match(probe)):
                yield Fact(*pattern)
            return
        seen = set()
        for witness in store.match(probe):
            projected = Fact(
                BOTTOM if pattern.source == BOTTOM else witness.source,
                TOP if pattern.relationship == TOP
                else witness.relationship,
                TOP if pattern.target == TOP else witness.target,
            )
            if projected not in seen:
                seen.add(projected)
                yield projected

    def estimate(self, pattern: Template, store: FactStore) -> int:
        return store.count_estimate(self._probe(pattern))


def standard_virtual_registry():
    """The registry every :class:`~repro.db.Database` installs:
    math facts + reflexive generalization + endpoint witnessing."""
    from .computed import VirtualRegistry
    from .math_facts import MathRelation

    return VirtualRegistry([
        MathRelation(),
        ReflexiveGeneralization(),
        EndpointWitness(),
    ])
