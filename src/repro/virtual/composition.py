"""Composition facts (§3.7), answered at read time under ``limit(n)``
(§6.1).

When the target of one fact is the source of another, their
composition is the fact ``(s1, r1.t1.r2, t2)``: a *path* relationship
named after the relationships traversed and the intermediate entity,
as in the paper's ``(TOM, ENROLLED-IN.CS100.TAUGHT-BY, HARRY)``.
Composition never chains through the special relationships (``≺ ∈ ≈ ↔
⊥`` and the comparators): a path through a generalization edge is not
an association between its endpoints, and the standard rules already
propagate along those edges.

Nothing composed is stored.  A chain of ``k`` facts ``(e0, r1, e1) …
(e[k-1], rk, ek)`` of the standard closure composes into ``(e0,
r1.e1.r2…rk, ek)`` when that fact is not in the closure already and

* under ``limit(n)``: ``2 ≤ k ≤ n``, and some bracketing of the chain
  passes the paper's endpoint test at every join — a composed part's
  source differs from its target — so ``(A, R.B.S.A.T, C)`` holds at
  ``limit(3)`` as ``R ∘ (S ∘ T)`` although ``R ∘ S`` fails the test;
* under ``limit(None)``: the chain is a simple path, no entity visited
  twice (the endpoint test alone would not end on cyclic data).

:class:`Composition` answers these facts by a walk over the standard
closure in the compiled executor's id space, from what a template
binds: its source (forward) or target (backward); a ground composed
name's first relationship and intermediate — tried at every split of
the name, since an entity such as ``3.5`` may hold the separator —
with the rest of the name guiding the walk; and, both endpoints open,
from every entity.  :meth:`Database.view <repro.db.Database.view>`
installs one only while ``limit(n > 1)`` (and imports this module only
then), so a ``limit(1)`` read pays nothing for it.
:func:`repro.rules.composition.compose_closure` materialises the same
facts; the tests hold the relation to it.
"""

from __future__ import annotations

import itertools
import weakref
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..core.entities import (
    SPECIAL_RELATIONSHIPS,
    compose_relationship,
    is_composed,
    is_special_relationship,
)
from ..core import deadline as _deadline
from ..core.facts import Fact, Template, Variable
from .computed import CHECK_KEYS, ComputedRelation

_ANY = Template(Variable("s"), Variable("r"), Variable("t"))

#: A chain: its entities and its relationships, in order, as ids.
Chain = Tuple[List[int], List[int]]


def composable(first: Fact, second: Fact) -> bool:
    """True if ``first`` and ``second`` may be composed (§3.7)."""
    return (first.target == second.source
            and first.source != second.target   # the cyclicity guard
            and not is_special_relationship(first.relationship)
            and not is_special_relationship(second.relationship))


def compose_pair(first: Fact, second: Fact) -> Fact:
    """The composition of two composable facts."""
    return Fact(first.source, compose_relationship(
        first.relationship, first.target, second.relationship),
        second.target)


def _bracketed(entities: Sequence[int]) -> bool:
    """Whether some bracketing of the chain through ``entities`` passes
    the endpoint test at every join: the part from ``entities[i]`` to
    ``entities[j]`` composes when it is one fact, or when its ends
    differ and it splits into two parts that compose."""
    k = len(entities) - 1
    if k == 2:
        return entities[0] != entities[2]
    if len(set(entities)) == k + 1:
        return True                 # a simple path: every bracketing
    ok = {(i, i + 1) for i in range(k)}
    for width in range(2, k + 1):
        for i in range(k - width + 1):
            j = i + width
            if entities[i] != entities[j] and any(
                    (i, m) in ok and (m, j) in ok for m in range(i + 1, j)):
                ok.add((i, j))
    return (0, k) in ok


#: generation -> the ids some fact leaves, and those some fact enters,
#: over relationships that are not special: the entities a chain can
#: pass through, found in one pass per generation.  A walk skips every
#: other entity without probing it.
_LINKED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _linked(gen, special: Set[int]) -> Tuple[Set[int], Set[int]]:
    linked = _LINKED.get(gen)
    if linked is None:
        # The rows in relationship order, less the special runs.
        at, parts = 0, []
        for i in sorted(special):
            parts.append(gen.perm_r[at:gen.start_r[i]])
            at = gen.start_r[i + 1]
        rows = list(itertools.chain(*parts, gen.perm_r[at:]))
        linked = _LINKED[gen] = (set(map(gen.scol.__getitem__, rows)),
                                 set(map(gen.tcol.__getitem__, rows)))
    return linked


class _Walk:
    """One read's access to the facts a chain may use — the closure's,
    special relationships left out — in one codec's id space: an
    entity's edges out (``(r, t)``) and in (``(r, s)``), fetched once
    per read from the generation's CSR offsets (less the tombstones)
    and the overlay's hash index."""

    def __init__(self, store, codec, special: Set[int]):
        self.store, self.codec, self.special = store, codec, special
        self.overlay = store._overlay or None  # noqa: SLF001
        self.removed = store._removed_at  # noqa: SLF001
        self.linked = _linked(store.generation, special)
        self._edges = ({}, {})

    def edges(self, entity: int, backward: bool = False
              ) -> Sequence[Tuple[int, int]]:
        linked = entity in self.linked[backward]
        if not linked and self.overlay is None:
            return ()
        found = self._edges[backward].get(entity)
        if found is None:
            found = []
            if linked:
                gen = self.store.generation
                if backward:
                    start = gen.start_t
                    rows = gen.perm_t[start[entity]:start[entity + 1]]
                else:
                    rows = range(gen.start_s[entity],
                                 gen.start_s[entity + 1])
                rcol, other = gen.rcol, gen.scol if backward else gen.tcol
                found = [(rcol[p], other[p]) for p in rows
                         if rcol[p] not in self.special
                         and p not in self.removed]
            if self.overlay is not None:
                name, encode = self.codec.decode(entity), self.codec.encode
                found += [
                    (encode(f.relationship),
                     encode(f.source if backward else f.target))
                    for f in (self.overlay.lookup(None, None, name)
                              if backward else self.overlay.lookup(name))
                    if not is_special_relationship(f.relationship)]
            self._edges[backward][entity] = found
        return found

    def known(self, name: str) -> Optional[int]:
        """``name``'s id when some fact names it, else ``None`` (no id
        is minted for a split of a composed name that names nothing)."""
        i = self.codec.interner.id_of(name)
        if i is None and self.overlay is not None \
                and self.overlay.has_entity(name):
            i = self.codec.encode(name)
        return i


class Composition(ComputedRelation):
    """The composition facts of one standard closure under one
    ``limit(n > 1)``.

    As a computed relation it declares no trigger names: it answers
    every template whose relationship is open or a composed name, as
    :meth:`facts` on names and :meth:`extend_ids` on the executor's
    ids.  It is also the closure the view's other relations read
    (:attr:`FactView.closure <repro.virtual.computed.FactView.closure>`):
    ``match``, ``__contains__``, ``count_estimate``, ``entities``,
    ``has_entity`` and ``entity_id_domain`` answer for the standard
    closure and its composition facts together, since composed facts
    witness the endpoints ``∇`` and ``Δ`` and their names belong to the
    active domain.  The full set of composition facts is enumerated
    only for the domain (:meth:`composed`), once per store version.
    """

    TRIGGERS = None

    def __init__(self, store, limit: Optional[int]):
        self.store, self.limit = store, limit
        self._all: Tuple[int, frozenset] = (-1, frozenset())
        id_of = store.generation.interner.id_of
        self._special = {i for i in map(id_of, SPECIAL_RELATIONSHIPS)
                         if i is not None}

    # ------------------------------------------------------------------
    # The walk
    # ------------------------------------------------------------------
    def _chains(self, walk: _Walk, starts, backward: bool
                ) -> Iterator[Chain]:
        """Every chain of two or more facts from each of ``starts``
        (into it, ``backward``), depth first, in walk order."""
        limit = self.limit
        for start in starts:
            entities, relationships = [start], []
            stack = [iter(walk.edges(start, backward))]
            while stack:
                for relationship, entity in stack[-1]:
                    if limit is None and entity in entities:
                        continue
                    if relationships:
                        yield (entities + [entity],
                               relationships + [relationship])
                    if limit is None or len(relationships) + 1 < limit:
                        onward = walk.edges(entity, backward)
                        if onward:
                            entities.append(entity)
                            relationships.append(relationship)
                            stack.append(iter(onward))
                            break
                else:
                    stack.pop()
                    del entities[len(stack):], relationships[len(stack) - 1:]

    def _spelled(self, walk: _Walk, entity: int, rest: str,
                 budget: Optional[int]) -> Iterator[Chain]:
        """The paths of at most ``budget`` facts (``None``: any) from
        ``entity`` whose relationships and intermediates spell
        ``rest``, as the entities after ``entity`` and the
        relationships.  The name bounds the walk, cycles or not."""
        decode = walk.codec.decode
        stack = [(entity, rest, [], [])]
        while stack:
            entity, rest, entities, relationships = stack.pop()
            if budget is not None and len(relationships) >= budget:
                continue
            for relationship, target in walk.edges(entity):
                name = decode(relationship)
                if rest == name:
                    yield entities + [target], relationships + [relationship]
                elif rest.startswith(name + "."):
                    tail = rest[len(name) + 1:]
                    if tail.startswith(decode(target) + "."):
                        stack.append((
                            target, tail[len(decode(target)) + 1:],
                            entities + [target],
                            relationships + [relationship]))

    def _named(self, walk: _Walk, name: str) -> Iterator[Chain]:
        """Every chain spelling ``name``, found from its first
        relationship and intermediate: each split of the name into
        ``r1 . e1 . rest`` whose ``r1`` and ``e1`` some fact names (a
        chain has exactly one).  The paths from ``e1`` that spell
        ``rest`` are walked once and joined to each fact into it."""
        dots = [i for i, c in enumerate(name) if c == "."]
        budget = None if self.limit is None else self.limit - 1
        for a, first_end in enumerate(dots):
            first = walk.known(name[:first_end])
            for second_end in dots[a + 1:] if first is not None else ():
                intermediate = walk.known(name[first_end + 1:second_end])
                tails = [] if intermediate is None else list(self._spelled(
                    walk, intermediate, name[second_end + 1:], budget))
                for relationship, source in walk.edges(intermediate, True) \
                        if tails else ():
                    if relationship == first:
                        for entities, relationships in tails:
                            yield ([source, intermediate] + entities,
                                   [first] + relationships)

    def _matching(self, walk: _Walk, s: Optional[int], r: Optional[int],
                  t: Optional[int]) -> Iterator[Tuple[int, str, int]]:
        """The composition facts with source ``s``, relationship ``r``
        and target ``t`` (ids; ``None``: any), as source id, composed
        name, target id — once per chain, so a fact two chains spell
        comes twice."""
        decode = walk.codec.decode
        name = None if r is None else decode(r)
        if name is None:
            if s is None and t is not None:
                chains = ((entities[::-1], relationships[::-1])
                          for entities, relationships
                          in self._chains(walk, [t], True))
            else:
                chains = self._chains(walk, [s] if s is not None else
                                      self.store.entity_id_domain(
                                          walk.codec.encode), False)
        elif not is_composed(name):
            return
        elif s is not None:
            chains = (([s] + entities, relationships) for entities,
                      relationships in self._spelled(walk, s, name,
                                                     self.limit)
                      if len(relationships) > 1)
        else:
            chains = self._named(walk, name)
        # A stored fact is no composition: only a name some fact holds
        # can spell one.
        stored = name is not None and walk.known(name) is not None
        for n, (entities, relationships) in enumerate(chains):
            if _deadline.ACTIVE and n % CHECK_KEYS == 0:
                _deadline.check()       # a walk is as long as the graph
            if t is not None and entities[-1] != t or not (
                    len(set(entities)) == len(entities)
                    if self.limit is None else entities[0] != entities[2]
                    if len(entities) == 3 else _bracketed(entities)):
                continue
            spelled = name
            if spelled is None:
                parts = [decode(relationships[0])]
                for entity, relationship in zip(entities[1:],
                                                relationships[1:]):
                    parts += (decode(entity), decode(relationship))
                spelled = ".".join(parts)
            if (stored or name is None and walk.known(spelled) is not None) \
                    and Fact(decode(entities[0]), spelled,
                             decode(entities[-1])) in self.store:
                continue
            yield entities[0], spelled, entities[-1]

    # ------------------------------------------------------------------
    # The computed relation
    # ------------------------------------------------------------------
    def handles(self, pattern: Template) -> bool:
        return isinstance(pattern.relationship, Variable) \
            or is_composed(pattern.relationship)

    def facts(self, pattern: Template, store=None) -> Iterator[Fact]:
        """The composition facts matching ``pattern``, on names."""
        codec = self.store.id_codec()
        variables = [c for c in pattern if isinstance(c, Variable)]
        repeated = len(set(variables)) < len(variables)
        found: Set[Fact] = set()
        for source, name, target in self._matching(
                _Walk(self.store, codec, self._special), *[
                    None if isinstance(c, Variable) else codec.encode(c)
                    for c in pattern]):
            fact = Fact(codec.decode(source), name, codec.decode(target))
            if fact not in found and (
                    not repeated or pattern.match(fact) is not None):
                found.add(fact)
                yield fact

    def extensions(self, fixed: Sequence[tuple], keys: List[tuple],
                   new_positions: Sequence[int],
                   checks: Sequence[Tuple[int, int]], codec) -> List[list]:
        """Per key, the extensions of the composition facts that match
        on the ``fixed`` positions: the executor's stored-fact leaf
        (``repro.query.exec._stored_id_extensions``, whose ``(position,
        name, id, key index)`` slots these are) for this relation."""
        walk = _Walk(self.store, codec, self._special)
        found = []
        for key in keys:
            triple: List[Optional[int]] = [None, None, None]
            for p, name, _id, k in fixed:
                triple[p] = codec.encode(name) if k is None else key[k]
            facts = self._matching(walk, *triple)
            if checks or 1 in new_positions:
                facts = [fact for fact in (
                    (source, codec.encode(name), target)
                    for source, name, target in facts)
                    if all(fact[i] == fact[j] for i, j in checks)]
            if not new_positions:
                found.append([()] if any(True for _ in facts) else [])
            elif len(new_positions) == 1:
                found.append(list(dict.fromkeys(
                    zip(map(itemgetter(new_positions[0]), facts)))))
            else:
                found.append(list(dict.fromkeys(
                    map(itemgetter(*new_positions), facts))))
        return found

    def extend_ids(self, pattern, key_of, keys, opened, probe, codec,
                   store, new_positions) -> List[list]:
        """:meth:`extensions` of every key (the relation declares no
        triggers), none where the relationship is not composed."""
        if not self.handles(pattern):
            return [()] * len(keys)
        fixed, checks, first = [], [], {}
        for p, component in enumerate(pattern):
            if not isinstance(component, Variable):
                fixed.append((p, component, None, None))
            elif key_of[p] is not None:
                fixed.append((p, None, None, key_of[p]))
            elif component in first:
                checks.append((first[component], p))
            else:
                first[component] = p
        return self.extensions(fixed, keys, new_positions, checks, codec)

    def estimate(self, pattern: Template, store=None) -> int:
        """At least one — a walk reaches what no index counts: a
        template of an open relationship is planned as its stored
        facts, one of a ground composed name as one fact."""
        if isinstance(pattern.relationship, Variable):
            return max(1, self.store.count_estimate(pattern))
        return 1

    # ------------------------------------------------------------------
    # The closure the other relations read
    # ------------------------------------------------------------------
    def composed(self) -> frozenset:
        """Every composition fact, enumerated once per store version."""
        if self._all[0] != self.store.version:
            self._all = (self.store.version, frozenset(self.facts(_ANY)))
        return self._all[1]

    def match(self, pattern: Template) -> Iterator[Fact]:
        yield from self.store.match(pattern)
        if self.handles(pattern):
            yield from self.facts(pattern)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.store or is_composed(fact.relationship) \
            and any(True for _ in self.facts(Template(*fact)))

    def count_estimate(self, pattern: Template) -> int:
        return self.store.count_estimate(pattern) + (
            self.estimate(pattern) if self.handles(pattern) else 0)

    def entities(self) -> Set[str]:
        return self.store.entities() | {f.relationship
                                        for f in self.composed()}

    def has_entity(self, entity: str) -> bool:
        return self.store.has_entity(entity) or is_composed(entity) \
            and any(True for _ in self.facts(
                Template(_ANY.source, entity, _ANY.target)))

    def entity_id_domain(self, encode) -> List[int]:
        domain = self.store.entity_id_domain(encode)
        return domain + sorted(set(map(encode, {
            f.relationship for f in self.composed()})) - set(domain))

    def split(self, fact: Fact) -> Optional[Tuple[Fact, Fact]]:
        """The two facts a composed fact's derivation joins: its name
        split at the first odd segment whose halves the closure holds,
        stored, derived or composed (``None`` where the intermediate
        holds the separator)."""
        segments = fact.relationship.split(".")
        for cut in range(1, len(segments) - 1, 2):
            left = Fact(fact.source, ".".join(segments[:cut]), segments[cut])
            right = Fact(segments[cut], ".".join(segments[cut + 1:]),
                         fact.target)
            if all(not is_special_relationship(part.relationship)
                   and part in self for part in (left, right)):
                return left, right
        return None
