"""The materialized generalization lattice (paper §5.1, at scale).

:class:`~repro.browse.hierarchy.GeneralizationHierarchy`, the reference
the equivalence suites hold this module to, answers the two questions
probing needs — *is E' broader than E?* and *what are E's minimal
generalizations?* — by building a networkx digraph, condensing it, and
transitively reducing it **from scratch for every version of the
hierarchy**.  That is the right reference semantics and the wrong
serving shape: a browsing session issues thousands of broadness probes
against a hierarchy that almost never changes.  Nothing on the serving
path builds the reference, so a server never imports networkx (a
test-only dependency).

:class:`GeneralizationLattice` is the serving implementation of the
same contract:

* **Interned nodes** — entities appearing in ``≺`` facts are interned
  to dense integer ids once; everything below works on ints.
* **Synonym condensation** — mutual-``≺`` cycles (synonym classes,
  §2.3) are collapsed by an iterative Tarjan SCC pass whose component
  numbering is reverse-topological, so reachability closures build in
  one sweep.
* **Bitmask reachability** — each component keeps its full up-set as
  a Python arbitrary-precision int; *broader-than* is one
  shift-and-mask, O(1).
* **Cover edges** — the transitive reduction is derived per component
  from its neighbors' up- and down-masks; *minimal generalizations of
  E* is O(covers).
* **Rebuilt, never patched** — the structure is immutable once built.
  The owner (:class:`~repro.db.Database`) drops it when a ``≺`` fact
  enters or leaves the closure and builds a new one on the next
  :meth:`~repro.db.Database.hierarchy`, so a batch of ``≺`` writes
  costs one build.
* **Store-bound views** — ``knows`` / ``closest_known`` read a bound
  store, so views over one structure serve the live store, every
  snapshot and the store after ``compact_store()``.

The public API is a superset of the reference hierarchy's, and the
randomized differential suite (``tests/test_lattice.py``) holds the two
implementations to identical answers on every method.
"""

from __future__ import annotations

import difflib
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..core.entities import BOTTOM, ISA, TOP
from ..core.facts import Template, Variable
from ..core.store import FactStore
from ..obs import telemetry as _obs

#: The template the lattice ingests from a closed store.
ISA_PATTERN = Template(Variable("s"), ISA, Variable("t"))


def _tarjan(n: int, out: Sequence[Sequence[int]]) -> Tuple[List[int], int]:
    """Iterative Tarjan SCC: ``(component_of, component_count)``.

    Components are numbered in pop order, which for Tarjan is reverse
    topological: every successor component of ``c`` has a smaller id
    than ``c``.  The mask builders below rely on exactly that.
    """
    comp_of = [-1] * n
    index_of = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    next_index = 0
    next_comp = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work: List[List[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            v = frame[0]
            if frame[1] == 0:
                index_of[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            neighbors = out[v]
            while frame[1] < len(neighbors):
                w = neighbors[frame[1]]
                frame[1] += 1
                if index_of[w] == -1:
                    work.append([w, 0])
                    descended = True
                    break
                if on_stack[w] and low[w] < low[v]:
                    low[v] = low[w]
            if descended:
                continue
            if low[v] == index_of[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp_of[w] = next_comp
                    if w == v:
                        break
                next_comp += 1
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
    return comp_of, next_comp


def _reduce(neighbors: Set[int], masks: List[int]) -> FrozenSet[int]:
    """Transitive reduction of one component's raw neighbor set: a
    neighbor is redundant when another neighbor already reaches it."""
    if len(neighbors) <= 1:
        return frozenset(neighbors)
    redundant = 0
    for n in neighbors:
        redundant |= masks[n] & ~(1 << n)
    return frozenset(n for n in neighbors if not (redundant >> n) & 1)


class _LatticeCore:
    """The immutable structure behind every lattice view.

    Built once, in the constructor, from ``≺`` pairs, and never written
    afterwards: views bound to different stores, and every snapshot of
    a database, share one core without a lock.  All state is
    per-*component* (synonym class): up-set reachability masks and
    cover frozensets.
    """

    __slots__ = ("id_of", "names", "edges", "comp_of", "members", "up",
                 "covers_up", "covers_down")

    def __init__(self, isa_pairs: Iterable) -> None:
        # Filtering matches the reference hierarchy exactly: reflexive
        # pairs and pairs touching ``Δ``/``∇`` impose no order (§5.1 —
        # ``Δ`` is implicitly above everything already).
        id_of: Dict[str, int] = {}
        names: List[str] = []
        edges: Set[Tuple[int, int]] = set()
        for source, target in isa_pairs:
            if source == target or TOP in (source, target) \
                    or BOTTOM in (source, target):
                continue
            for name in (source, target):
                if name not in id_of:
                    id_of[name] = len(names)
                    names.append(name)
            edges.add((id_of[source], id_of[target]))
        n = len(names)
        out: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            out[u].append(v)
        comp_of, count = _tarjan(n, out)
        members: List[List[int]] = [[] for _ in range(count)]
        for node, comp in enumerate(comp_of):
            members[comp].append(node)
        comp_out: List[Set[int]] = [set() for _ in range(count)]
        comp_in: List[Set[int]] = [set() for _ in range(count)]
        for u, v in edges:
            cu, cv = comp_of[u], comp_of[v]
            if cu != cv:
                comp_out[cu].add(cv)
                comp_in[cv].add(cu)
        # Successor components have smaller ids (Tarjan pop order), so
        # one ascending sweep closes the up-sets and one descending
        # sweep the down-sets.
        up = [0] * count
        for comp in range(count):
            mask = 1 << comp
            for succ in comp_out[comp]:
                mask |= up[succ]
            up[comp] = mask
        down = [0] * count
        for comp in range(count - 1, -1, -1):
            mask = 1 << comp
            for pred in comp_in[comp]:
                mask |= down[pred]
            down[comp] = mask
        self.id_of = id_of
        self.names = names
        self.edges = len(edges)
        self.comp_of = comp_of
        self.members = members
        self.up = up
        self.covers_up = [_reduce(comp_out[c], up) for c in range(count)]
        self.covers_down = [_reduce(comp_in[c], down) for c in range(count)]
        if _obs.ENABLED:
            _obs.TELEMETRY.count("lattice.builds")

    def stats(self) -> dict:
        return {
            "entities": len(self.names),
            "components": len(self.members),
            "edges": self.edges,
            "cover_edges": sum(len(c) for c in self.covers_up),
        }


class GeneralizationLattice:
    """The ``≺`` partial order of a database — drop-in for
    :class:`~repro.browse.hierarchy.GeneralizationHierarchy`, built for
    repeated probing.

    A lattice is a *view*: an immutable structure
    (:class:`_LatticeCore`) plus a knows-source — either a live store
    (:meth:`from_store` / :meth:`with_store`) or a frozen entity set
    (direct construction, mirroring the reference signature).
    """

    __slots__ = ("_core", "_store", "_known")

    def __init__(self, isa_pairs: Iterable = (),
                 known_entities: Optional[Iterable[str]] = None, *,
                 store: Optional[FactStore] = None):
        self._core = _LatticeCore(isa_pairs)
        self._store = store
        self._known: FrozenSet[str] = (
            frozenset(known_entities) if known_entities is not None
            else frozenset())

    @classmethod
    def from_store(cls, store: FactStore) -> "GeneralizationLattice":
        """Build from a (closed) fact store, staying bound to it for
        ``knows`` / ``closest_known``."""
        pairs = ((f.source, f.target) for f in store.match(ISA_PATTERN))
        return cls(pairs, store=store)

    def with_store(self, store: Optional[FactStore]) \
            -> "GeneralizationLattice":
        """A view over the same structure bound to ``store`` — O(1);
        how the lattice survives closure rebuilds, snapshots and
        ``compact_store()``."""
        if store is self._store:
            return self
        view = GeneralizationLattice.__new__(GeneralizationLattice)
        view._core = self._core
        view._store = store
        view._known = self._known
        return view

    def stats(self) -> dict:
        return self._core.stats()

    # ------------------------------------------------------------------
    # The reference-hierarchy contract (§5.1)
    # ------------------------------------------------------------------
    def knows(self, entity: str) -> bool:
        """True if ``entity`` is a database entity (or Δ/∇)."""
        if self._store is not None:
            return self._store.has_entity(entity) \
                or entity in (TOP, BOTTOM)
        return entity in self._known or entity in (TOP, BOTTOM)

    def closest_known(self, name: str, limit: int = 3,
                      cutoff: float = 0.6) -> List[str]:
        """Database entities with names close to ``name`` (the §5.2
        misspelling follow-up), best first."""
        known = (self._store.entities() if self._store is not None
                 else self._known)
        return difflib.get_close_matches(
            name, sorted(known), n=limit, cutoff=cutoff)

    def _comp(self, entity: str) -> Optional[int]:
        node = self._core.id_of.get(entity)
        if node is None:
            return None
        return self._core.comp_of[node]

    def _members(self, comps: Iterable[int]) -> FrozenSet[str]:
        core = self._core
        names = core.names
        members = core.members
        out: Set[str] = set()
        for comp in comps:
            out.update(names[node] for node in members[comp])
        return frozenset(out)

    def synonym_class(self, entity: str) -> FrozenSet[str]:
        """The entity's synonym class (itself if it has no synonyms)."""
        comp = self._comp(entity)
        if comp is None:
            return frozenset({entity})
        return self._members((comp,))

    def minimal_generalizations(self, entity: str) -> FrozenSet[str]:
        """The covers of ``entity``: ``{Δ}`` for maximal database
        entities, the empty set for ``Δ``/``∇`` and unknown entities
        ("it will never be replaced", §5.2)."""
        if entity in (TOP, BOTTOM):
            return frozenset()
        comp = self._comp(entity)
        if comp is None:
            # Known entities outside the order are maximal; unknown
            # ones are not database entities at all.
            return frozenset({TOP}) if self.knows(entity) else frozenset()
        covers = self._core.covers_up[comp]
        if not covers:
            return frozenset({TOP})
        return self._members(covers)

    def minimal_specializations(self, entity: str) -> FrozenSet[str]:
        """The co-covers of ``entity`` — ``{∇}`` for minimal database
        entities, empty for ``Δ``/``∇`` and unknown entities."""
        if entity in (TOP, BOTTOM):
            return frozenset()
        comp = self._comp(entity)
        if comp is None:
            return frozenset({BOTTOM}) if self.knows(entity) \
                else frozenset()
        co_covers = self._core.covers_down[comp]
        if not co_covers:
            return frozenset({BOTTOM})
        return self._members(co_covers)

    def generalizes(self, broad: str, narrow: str) -> bool:
        """True if ``(narrow, ≺, broad)`` holds — reflexively, through
        synonyms, or via ``Δ``/``∇``.  One bit test."""
        if broad == TOP or narrow == BOTTOM:
            return True
        if narrow == broad:
            return True
        narrow_comp = self._comp(narrow)
        broad_comp = self._comp(broad)
        if narrow_comp is None or broad_comp is None:
            return False
        return bool((self._core.up[narrow_comp] >> broad_comp) & 1)

    def strictly_generalizes(self, broad: str, narrow: str) -> bool:
        """True if ``broad`` is strictly above ``narrow`` (synonyms and
        the entity itself excluded)."""
        if broad == narrow:
            return False
        if broad == TOP:
            return narrow != TOP
        if narrow == BOTTOM:
            return broad != BOTTOM
        narrow_comp = self._comp(narrow)
        broad_comp = self._comp(broad)
        if narrow_comp is None or broad_comp is None:
            return False
        return narrow_comp != broad_comp and bool(
            (self._core.up[narrow_comp] >> broad_comp) & 1)

    def generalization_chain_depth(self, entity: str) -> int:
        """Length of the longest strict chain from ``entity`` up to a
        maximal entity (0 for maximal entities); used by benchmarks."""
        comp = self._comp(entity)
        if comp is None:
            return 0
        covers_up = self._core.covers_up
        depth = 0
        frontier = {comp}
        while True:
            successors: Set[int] = set()
            for node in frontier:
                successors.update(covers_up[node])
            if not successors:
                return depth
            depth += 1
            frontier = successors
