"""The fact heap: an indexed in-memory store of triplets.

The paper deliberately leaves storage strategy open (§6.2); this module
provides the obvious main-memory organization — a set of facts with
hash indexes on every access pattern — so that template matching (the
primitive behind queries, browsing, and rule evaluation) is fast
regardless of which positions are bound.

All seven non-trivial access patterns are served:

====================  =========================
bound positions       index used
====================  =========================
s                     ``_by_s``
r                     ``_by_r``
t                     ``_by_t``
s, r                  ``_by_sr``
s, t                  ``_by_st``
r, t                  ``_by_rt``
s, r, t               membership test
====================  =========================

Example::

    from repro.core import Fact, FactStore, template, var

    store = FactStore([Fact("JOHN", "EARNS", "$25000")])
    matches = store.match(template("JOHN", var("r"), var("y")))
    assert [f.target for f in matches] == ["$25000"]
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import telemetry as _obs
from .errors import FrozenStoreError
from .facts import Binding, Fact, Template, Variable


def seed_store(base: Iterable["Fact"]) -> "FactStore":
    """The hash store the reference engines (:mod:`repro.rules.engine`)
    grow from ``base``; the dispatched engine grows ids on an interned
    base instead.

    A store is iterated (an interned one decodes its columns) and each
    of its rows indexed once, into a store at the base's version
    (:meth:`FactStore.from_rows`).  Arbitrary iterables build a store
    fact by fact.
    """
    if not isinstance(base, FactStore):
        return FactStore(base)
    return FactStore.from_rows(base, base.version)


class FactStore:
    """A mutable, fully indexed heap of facts.

    The store is *loose* in the paper's sense: any contradiction-free
    collection of facts qualifies; nothing resembling a schema is
    enforced here.  (Contradiction checking lives in
    :mod:`repro.rules.integrity`, because it needs the closure.)
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts: Set[Fact] = set()
        self._by_s: Dict[str, Set[Fact]] = defaultdict(set)
        self._by_r: Dict[str, Set[Fact]] = defaultdict(set)
        self._by_t: Dict[str, Set[Fact]] = defaultdict(set)
        self._by_sr: Dict[Tuple[str, str], Set[Fact]] = defaultdict(set)
        self._by_st: Dict[Tuple[str, str], Set[Fact]] = defaultdict(set)
        self._by_rt: Dict[Tuple[str, str], Set[Fact]] = defaultdict(set)
        # Reference counts so entity bookkeeping survives deletions.
        self._entity_refs: Dict[str, int] = defaultdict(int)
        self._relationship_refs: Dict[str, int] = defaultdict(int)
        # Monotone mutation counter: bumped on every successful add,
        # discard, or clear — never reset.  Result caches key on it so
        # a moved version invalidates every entry for free.
        self._version: int = 0
        # Frozen stores reject mutation (published service snapshots).
        self._frozen: bool = False
        for f in facts:
            self.add(f)

    @classmethod
    def from_rows(cls, rows: Iterable[Fact], version: int) -> "FactStore":
        """A store of ``rows``, which must be distinct, at ``version``:
        each row is indexed directly (:meth:`_index`), without
        :meth:`add`'s membership test, telemetry and version bump."""
        store = cls()
        index = store._index
        for fact in rows:
            index(fact)
        store._version = version
        return store

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert a fact.  Returns True if it was not already present."""
        if self._frozen:
            raise FrozenStoreError("cannot add to a frozen store")
        if fact in self._facts:
            return False
        if _obs.ENABLED:
            _obs.TELEMETRY.count("store.adds")
        self._version += 1
        self._index(fact)
        return True

    def _index(self, fact: Fact) -> None:
        """Enter an absent fact into the set, the six indexes and the
        reference counts — the bookkeeping of :meth:`add` without its
        checks, telemetry and version bump (the interned store keeps
        its tombstones in a store maintained through this pair)."""
        self._facts.add(fact)
        s, r, t = fact
        self._by_s[s].add(fact)
        self._by_r[r].add(fact)
        self._by_t[t].add(fact)
        self._by_sr[s, r].add(fact)
        self._by_st[s, t].add(fact)
        self._by_rt[r, t].add(fact)
        for entity in fact:
            self._entity_refs[entity] += 1
        self._relationship_refs[r] += 1

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; returns the number actually new."""
        return sum(1 for f in facts if self.add(f))

    def discard(self, fact: Fact) -> bool:
        """Remove a fact if present.  Returns True if it was present."""
        if self._frozen:
            raise FrozenStoreError("cannot discard from a frozen store")
        if fact not in self._facts:
            return False
        if _obs.ENABLED:
            _obs.TELEMETRY.count("store.removes")
        self._version += 1
        self._unindex(fact)
        return True

    def _unindex(self, fact: Fact) -> None:
        """Inverse of :meth:`_index`, for a fact that is present."""
        self._facts.remove(fact)
        s, r, t = fact
        self._by_s[s].discard(fact)
        self._by_r[r].discard(fact)
        self._by_t[t].discard(fact)
        self._by_sr[s, r].discard(fact)
        self._by_st[s, t].discard(fact)
        self._by_rt[r, t].discard(fact)
        for entity in fact:
            self._entity_refs[entity] -= 1
            if not self._entity_refs[entity]:
                del self._entity_refs[entity]
        self._relationship_refs[r] -= 1
        if not self._relationship_refs[r]:
            del self._relationship_refs[r]

    def clear(self) -> None:
        """Remove every fact.  The version keeps moving forward."""
        if self._frozen:
            raise FrozenStoreError("cannot clear a frozen store")
        version = self._version + 1
        self.__init__()
        self._version = version

    def freeze(self) -> "FactStore":
        """Make this store permanently read-only (returns ``self``).

        Any subsequent :meth:`add` / :meth:`discard` / :meth:`clear`
        raises :class:`~repro.core.errors.FrozenStoreError`.  The
        serving layer freezes the stores of every published snapshot so
        concurrent readers can share them without locks — an accidental
        write fails instead of tearing another reader's view.  An
        interned store's :meth:`~repro.core.interned.InternedFactStore.copy`
        is always *unfrozen*.
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has been called."""
        return self._frozen

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __bool__(self) -> bool:
        return bool(self._facts)

    @property
    def version(self) -> int:
        """Monotone mutation counter (adds, discards, and clears)."""
        return self._version

    def entities(self) -> Set[str]:
        """The active domain: every entity occurring in any position."""
        return set(self._entity_refs)

    def relationships(self) -> Set[str]:
        """Every entity occurring in relationship position."""
        return set(self._relationship_refs)

    def has_entity(self, entity: str) -> bool:
        """True if the entity occurs anywhere in the store.

        Probing uses this to report "no such database entities" (§5.2).
        """
        return entity in self._entity_refs

    def has_relationship(self, relationship: str) -> bool:
        """True if any stored fact uses ``relationship``."""
        return relationship in self._relationship_refs

    # ------------------------------------------------------------------
    # Template matching
    # ------------------------------------------------------------------
    def _candidates(self, pattern: Template) -> Iterable[Fact]:
        """The smallest indexed candidate set for a pattern.

        ``pattern`` components are entities or variables; repeated
        variables are handled by the caller's post-filter.
        """
        s = pattern.source if isinstance(pattern.source, str) else None
        r = (pattern.relationship
             if isinstance(pattern.relationship, str) else None)
        t = pattern.target if isinstance(pattern.target, str) else None

        if _obs.ENABLED:
            _obs.TELEMETRY.count("store.lookups")

        if s is not None and r is not None and t is not None:
            f = Fact(s, r, t)
            return (f,) if f in self._facts else ()
        if s is not None and r is not None:
            return self._by_sr.get((s, r), ())
        if s is not None and t is not None:
            return self._by_st.get((s, t), ())
        if r is not None and t is not None:
            return self._by_rt.get((r, t), ())
        if s is not None:
            return self._by_s.get(s, ())
        if r is not None:
            return self._by_r.get(r, ())
        if t is not None:
            return self._by_t.get(t, ())
        return self._facts

    def lookup(self, source: Optional[str] = None,
               relationship: Optional[str] = None,
               target: Optional[str] = None) -> Iterable[Fact]:
        """The indexed candidate set for raw ground positions.

        Each argument is an entity or ``None`` (wildcard).  This is the
        template-free twin of :meth:`match`, used by the compiled rule
        joins (:mod:`repro.rules.dispatch`) which track bindings in
        slots instead of :class:`~repro.core.facts.Binding` dicts.
        """
        if _obs.ENABLED:
            _obs.TELEMETRY.count("store.lookups")
        if source is not None:
            if relationship is not None:
                if target is not None:
                    f = Fact(source, relationship, target)
                    return (f,) if f in self._facts else ()
                return self._by_sr.get((source, relationship), ())
            if target is not None:
                return self._by_st.get((source, target), ())
            return self._by_s.get(source, ())
        if relationship is not None:
            if target is not None:
                return self._by_rt.get((relationship, target), ())
            return self._by_r.get(relationship, ())
        if target is not None:
            return self._by_t.get(target, ())
        return self._facts

    def index_for(self, spec: str) -> Dict:
        """Direct read handle on one positional hash index.

        ``spec`` names the ground positions: ``"s"``, ``"r"``, ``"t"``,
        ``"sr"``, ``"st"``, or ``"rt"``.  The returned mapping is the
        live index (keys are entities or entity pairs, values are fact
        sets) — callers must treat it as read-only and use ``.get`` so
        the ``defaultdict`` is never grown by a miss.
        :meth:`lookup_many_ids` and the dispatched closure's deltas
        (:mod:`repro.rules.dispatch`) resolve the handle once per batch.
        """
        try:
            return {"s": self._by_s, "r": self._by_r, "t": self._by_t,
                    "sr": self._by_sr, "st": self._by_st,
                    "rt": self._by_rt}[spec]
        except KeyError:
            raise KeyError(f"no index for position spec {spec!r}") from None

    # ------------------------------------------------------------------
    # The batched probe, with names as ids
    # ------------------------------------------------------------------
    def lookup_many_ids(self, spec: str, keys: Sequence[tuple],
                        positions: Optional[Sequence[int]] = None,
                        checks: Sequence[Tuple[int, int]] = ()
                        ) -> List[list]:
        """The hash store's form of the query executor's batched probe,
        :meth:`~repro.core.interned.InternedFactStore.lookup_many_ids`,
        with names for ids — the mirror ``tests/test_interned_store.py``
        holds the interned store's probe to (the executor itself only
        runs on a generation).  ``keys`` are name tuples in ``spec``
        order, answered from the one index ``spec`` names (resolved
        once for the batch) at one dict probe per key.  With
        ``positions`` each match is the tuple of those components
        (``[]``: a pure existence filter), without it the fact;
        ``checks`` are position pairs that must hold equal names.
        """
        if not spec:
            runs: List = [self._facts] * len(keys)
        elif spec == "srt":
            facts = self._facts
            runs = [(key,) if key in facts else () for key in keys]
        elif len(spec) == 1:
            get = self.index_for(spec).get
            runs = [get(name, ()) for (name,) in keys]
        else:
            get = self.index_for(spec).get
            runs = [get(key, ()) for key in keys]
        if checks:
            runs = [[f for f in run
                     if all(f[i] == f[j] for i, j in checks)]
                    for run in runs]
        if positions is None:
            return [list(run) for run in runs]
        if not positions:
            return [[()] if run else [] for run in runs]
        if len(positions) == 1:
            p = positions[0]
            return [[(f[p],) for f in run] for run in runs]
        pick = itemgetter(*positions)
        return [list(map(pick, run)) for run in runs]

    def match(self, pattern: Template,
              binding: Optional[Binding] = None) -> Iterator[Fact]:
        """All stored facts matching a template (under a binding).

        The template's variables already bound in ``binding`` act as
        constants; repeated variables must match equal entities.
        """
        if binding:
            pattern = pattern.substitute(binding)
        # Fast path: no repeated variables means the candidate set is
        # exactly the answer.
        variables = pattern.variables()
        if len(variables) == len(set(variables)):
            yield from self._candidates(pattern)
            return
        for candidate in self._candidates(pattern):
            if pattern.match(candidate) is not None:
                yield candidate

    def solutions(self, pattern: Template,
                  binding: Optional[Binding] = None) -> Iterator[Binding]:
        """All extended bindings under which ``pattern`` matches."""
        base = binding or {}
        substituted = pattern.substitute(base) if base else pattern
        if _obs.ENABLED:
            yield from self._solutions_traced(substituted, base)
            return
        for candidate in self._candidates(substituted):
            extended = substituted.match(candidate, base)
            if extended is not None:
                yield extended

    def _solutions_traced(self, substituted: Template,
                          base: Binding) -> Iterator[Binding]:
        """:meth:`solutions` with per-pattern-shape call/hit counters.

        Shapes key on which positions are ground (``"sr"``, ``"t"``,
        ``"open"``, …) so the counters reveal which indexes carry the
        workload without exploding in cardinality.
        """
        shape = _obs.pattern_shape(substituted)
        telemetry = _obs.TELEMETRY
        telemetry.count(f"store.solutions.calls.{shape}")
        hits = 0
        try:
            for candidate in self._candidates(substituted):
                extended = substituted.match(candidate, base)
                if extended is not None:
                    hits += 1
                    yield extended
        finally:
            # Counted in a finally so early-terminated scans (any(),
            # first-match) still report the hits they produced.
            if hits:
                telemetry.count(f"store.solutions.hits.{shape}", hits)

    def count_estimate(self, pattern: Template,
                       binding: Optional[Binding] = None) -> int:
        """Upper bound on the number of matches, from index sizes.

        Used by the query planner to order conjuncts by selectivity;
        exact for patterns without repeated variables.
        """
        if binding:
            pattern = pattern.substitute(binding)
        candidates = self._candidates(pattern)
        try:
            return len(candidates)  # type: ignore[arg-type]
        except TypeError:
            return sum(1 for _ in candidates)

    def facts_mentioning(self, entity: str) -> Set[Fact]:
        """Every fact in which ``entity`` occurs, in any position.

        This is the engine behind the ``try(e)`` operator (§6.1).
        """
        v = Variable("__any_a__")
        w = Variable("__any_b__")
        result: Set[Fact] = set()
        for pattern in (Template(entity, v, w), Template(v, entity, w),
                        Template(v, w, entity)):
            result.update(self.match(pattern))
        return result
