"""The materialized generalization lattice (paper §5.1, at scale).

:class:`~repro.browse.probe.GeneralizationHierarchy`, the reference
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
* **Bitmask reachability** — each component keeps its full up-set and
  down-set as a Python arbitrary-precision int; *broader-than* is one
  shift-and-mask, O(1).
* **Cover edges** — the transitive reduction is derived per component
  from the successor up-masks; *minimal generalizations of E* is
  O(covers).
* **Incremental patching** — new ``≺`` pairs are folded in place: an
  already-implied edge is a no-op, an acyclic edge updates the masks
  of the affected up/down cones and recomputes only their cover lists,
  and only a cycle-creating edge (a new synonym merge) triggers a full
  structural rebuild.  Deletions are handled by the owner
  (:class:`~repro.db.Database`) dropping the lattice.
* **Store-bound views** — the structure is shared; ``knows`` /
  ``closest_known`` delegate to an attached live store, so pure domain
  growth (new entities, no new ``≺`` facts) costs nothing and the
  lattice survives :meth:`~repro.db.Database.compact_store`, which
  changes the representation of the store but not its facts.

The public API is a superset of the reference hierarchy's, and the
randomized differential suite (``tests/test_lattice.py``) holds the two
implementations to identical answers on every method.
"""

from __future__ import annotations

import difflib
import threading
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

from ..core.entities import BOTTOM, ISA, TOP
from ..core.facts import Template, Variable
from ..core.store import FactStore
from ..obs import telemetry as _obs

#: The template the lattice ingests from a closed store.
ISA_PATTERN = Template(Variable("s"), ISA, Variable("t"))


def _bits(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _count(name: str, value: int = 1) -> None:
    if _obs.ENABLED:
        _obs.TELEMETRY.count(name, value)


class _LatticeCore:
    """The shared mutable structure behind every lattice view.

    All state is per-*component* (synonym class): raw successor /
    predecessor sets, up/down reachability masks, and cover frozensets.
    One core can back many :class:`GeneralizationLattice` views bound
    to different stores; patches mutate it in place so every view sees
    them (copy-on-patch for snapshot isolation is the owner's job, via
    :meth:`copy`).
    """

    __slots__ = ("id_of", "names", "pairs", "edges", "comp_of",
                 "members", "comp_out", "comp_in", "up", "down",
                 "covers_up", "covers_down", "builds", "patches",
                 "merge_rebuilds", "patched_edges", "lock")

    def __init__(self) -> None:
        self.id_of: Dict[str, int] = {}
        self.names: List[str] = []
        #: every (source, target) pair ever ingested, including the
        #: structurally filtered ones — the dedup set incremental
        #: feeding diffs against.
        self.pairs: Set[Tuple[str, str]] = set()
        #: the structural edges (filtered, as id pairs); the rebuild
        #: source of truth.
        self.edges: Set[Tuple[int, int]] = set()
        self.comp_of: List[int] = []
        self.members: List[List[int]] = []
        self.comp_out: List[Set[int]] = []
        self.comp_in: List[Set[int]] = []
        self.up: List[int] = []
        self.down: List[int] = []
        self.covers_up: List[FrozenSet[int]] = []
        self.covers_down: List[FrozenSet[int]] = []
        self.builds = 0
        self.patches = 0
        self.merge_rebuilds = 0
        self.patched_edges = 0
        # Guards structural mutation (patch/rebuild).  Reads are
        # lock-free: readers of a *published snapshot* always hold a
        # core that is no longer patched in place (copy-on-patch).
        self.lock = threading.Lock()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, isa_pairs: Iterable) -> List[Tuple[int, int]]:
        """Record raw pairs; returns the structurally *new* id edges.

        Filtering matches the reference hierarchy exactly: reflexive
        pairs and pairs touching ``Δ``/``∇`` impose no order (§5.1 —
        ``Δ`` is implicitly above everything already).
        """
        new_edges: List[Tuple[int, int]] = []
        pairs = self.pairs
        edges = self.edges
        id_of = self.id_of
        names = self.names
        for source, target in isa_pairs:
            pair = (source, target)
            if pair in pairs:
                continue
            pairs.add(pair)
            if source == target or TOP in pair or BOTTOM in pair:
                continue
            u = id_of.get(source)
            if u is None:
                u = id_of[source] = len(names)
                names.append(source)
            v = id_of.get(target)
            if v is None:
                v = id_of[target] = len(names)
                names.append(target)
            edge = (u, v)
            if edge not in edges:
                edges.add(edge)
                new_edges.append(edge)
        return new_edges

    # ------------------------------------------------------------------
    # Full build
    # ------------------------------------------------------------------
    def build(self) -> None:
        """(Re)derive all per-component structure from ``edges``."""
        n = len(self.names)
        out: List[List[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            out[u].append(v)
        comp_of, count = _tarjan(n, out)
        members: List[List[int]] = [[] for _ in range(count)]
        for node, comp in enumerate(comp_of):
            members[comp].append(node)
        comp_out: List[Set[int]] = [set() for _ in range(count)]
        comp_in: List[Set[int]] = [set() for _ in range(count)]
        for u, v in self.edges:
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
        self.comp_of = comp_of
        self.members = members
        self.comp_out = comp_out
        self.comp_in = comp_in
        self.up = up
        self.down = down
        self.covers_up = [self._reduce(comp_out[c], up) for c in range(count)]
        self.covers_down = [self._reduce(comp_in[c], down)
                            for c in range(count)]
        self.builds += 1
        _count("lattice.builds")

    @staticmethod
    def _reduce(neighbors: Set[int], masks: List[int]) -> FrozenSet[int]:
        """Transitive reduction of one component's raw neighbor set: a
        neighbor is redundant when another neighbor already reaches it."""
        if len(neighbors) <= 1:
            return frozenset(neighbors)
        redundant = 0
        for n in neighbors:
            redundant |= masks[n] & ~(1 << n)
        return frozenset(n for n in neighbors if not (redundant >> n) & 1)

    # ------------------------------------------------------------------
    # Incremental patching
    # ------------------------------------------------------------------
    def apply(self, new_edges: List[Tuple[int, int]]) -> str:
        """Fold structurally new edges in; returns ``"patched"`` or
        ``"rebuilt"`` (a cycle-creating edge merged synonym classes).

        Must be called with ``lock`` held.  The three cases:

        1. **implied** — the target component is already in the source
           component's up-set: record the raw edge; reachability and
           covers are provably unchanged (the pre-existing witness path
           runs through some successor whose up-set already contains
           both the new successor and everything above it).
        2. **acyclic** — or the masks of the source's down-cone and the
           target's up-cone, then recompute covers only for components
           whose successor (resp. predecessor) masks moved.
        3. **cycle** — the reverse direction is already reachable, so
           the edge merges components; renumbering is global, rebuild.
        """
        for index, (u, v) in enumerate(new_edges):
            # New nodes appended by ingest() since the last build get
            # fresh singleton components on demand.
            self._ensure_components()
            comp_of = self.comp_of
            cu, cv = comp_of[u], comp_of[v]
            if cu == cv:
                continue                      # inside one synonym class
            out_cu = self.comp_out[cu]
            if cv in out_cu:
                continue                      # raw edge already present
            up, down = self.up, self.down
            if (up[cu] >> cv) & 1:            # case 1: implied
                out_cu.add(cv)
                self.comp_in[cv].add(cu)
                continue
            if (down[cu] >> cv) & 1:          # case 3: synonym merge
                self.build()
                self.merge_rebuilds += 1
                self.patched_edges += len(new_edges) - index
                _count("lattice.merge_rebuilds")
                return "rebuilt"
            # Case 2: genuinely new ancestry.
            out_cu.add(cv)
            self.comp_in[cv].add(cu)
            down_cone = down[cu]              # cu and everything below
            up_cone = up[cv]                  # cv and everything above
            for d in _bits(down_cone):
                up[d] |= up_cone
            for a in _bits(up_cone):
                down[a] |= down_cone
            # covers_up of x depends on (successors of x, up-masks of
            # those successors): recompute where either input moved.
            touched_up = {cu}
            comp_in = self.comp_in
            for d in _bits(down_cone):
                touched_up.update(comp_in[d])
            covers_up = self.covers_up
            comp_out = self.comp_out
            for c in touched_up:
                covers_up[c] = self._reduce(comp_out[c], up)
            touched_down = {cv}
            for a in _bits(up_cone):
                touched_down.update(comp_out[a])
            covers_down = self.covers_down
            for c in touched_down:
                covers_down[c] = self._reduce(comp_in[c], down)
            self.patched_edges += 1
        self.patches += 1
        _count("lattice.patches")
        _count("lattice.patch_edges", max(len(new_edges), 1))
        return "patched"

    def _ensure_components(self) -> None:
        """Singleton components for nodes interned after the last
        build/patch."""
        comp_of = self.comp_of
        while len(comp_of) < len(self.names):
            comp = len(self.members)
            comp_of.append(comp)
            self.members.append([len(comp_of) - 1])
            self.comp_out.append(set())
            self.comp_in.append(set())
            self.up.append(1 << comp)
            self.down.append(1 << comp)
            self.covers_up.append(frozenset())
            self.covers_down.append(frozenset())

    # ------------------------------------------------------------------
    def copy(self) -> "_LatticeCore":
        """An independent structural copy (copy-on-patch for shared
        snapshot lattices)."""
        clone = _LatticeCore.__new__(_LatticeCore)
        clone.id_of = dict(self.id_of)
        clone.names = list(self.names)
        clone.pairs = set(self.pairs)
        clone.edges = set(self.edges)
        clone.comp_of = list(self.comp_of)
        clone.members = [list(m) for m in self.members]
        clone.comp_out = [set(s) for s in self.comp_out]
        clone.comp_in = [set(s) for s in self.comp_in]
        clone.up = list(self.up)
        clone.down = list(self.down)
        clone.covers_up = list(self.covers_up)
        clone.covers_down = list(self.covers_down)
        clone.builds = self.builds
        clone.patches = self.patches
        clone.merge_rebuilds = self.merge_rebuilds
        clone.patched_edges = self.patched_edges
        clone.lock = threading.Lock()
        return clone

    def stats(self) -> dict:
        return {
            "entities": len(self.names),
            "components": len(self.members),
            "edges": len(self.edges),
            "cover_edges": sum(len(c) for c in self.covers_up),
            "builds": self.builds,
            "patches": self.patches,
            "merge_rebuilds": self.merge_rebuilds,
            "patched_edges": self.patched_edges,
        }


class GeneralizationLattice:
    """The ``≺`` partial order of a database — drop-in for
    :class:`~repro.browse.probe.GeneralizationHierarchy`, built for
    repeated probing.

    A lattice is a *view*: shared immutable-between-patches structure
    (:class:`_LatticeCore`) plus a knows-source — either a live store
    (:meth:`from_store` / :meth:`with_store`) or a frozen entity set
    (direct construction, mirroring the reference signature).
    """

    __slots__ = ("_core", "_store", "_known")

    def __init__(self, isa_pairs: Iterable = (),
                 known_entities: Optional[Iterable[str]] = None, *,
                 store: Optional[FactStore] = None,
                 core: Optional[_LatticeCore] = None):
        if core is None:
            core = _LatticeCore()
            core.ingest(isa_pairs)
            core.build()
        self._core = core
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

    # ------------------------------------------------------------------
    # View plumbing (the owner database's lifecycle hooks)
    # ------------------------------------------------------------------
    def with_store(self, store: FactStore) -> "GeneralizationLattice":
        """A view over the same structure bound to ``store`` — O(1);
        how the lattice survives closure rebuilds and
        ``compact_store()``."""
        if store is self._store:
            return self
        view = GeneralizationLattice.__new__(GeneralizationLattice)
        view._core = self._core
        view._store = store
        view._known = self._known
        return view

    def structural_copy(self) -> "GeneralizationLattice":
        """An independent copy of the structure (same binding) — the
        copy-on-patch step when the structure is shared with published
        snapshots."""
        view = GeneralizationLattice.__new__(GeneralizationLattice)
        view._core = self._core.copy()
        view._store = self._store
        view._known = self._known
        return view

    def shares_core(self, other: "GeneralizationLattice") -> bool:
        return self._core is other._core

    @property
    def store(self) -> Optional[FactStore]:
        return self._store

    def add_isa_pairs(self, isa_pairs: Iterable) -> str:
        """Fold new ``≺`` pairs in incrementally.

        Pairs already ingested are skipped, so the caller may pass the
        store's full current ``≺`` fact set; returns ``"noop"``,
        ``"patched"``, or ``"rebuilt"``.
        """
        core = self._core
        with core.lock:
            new_edges = core.ingest(isa_pairs)
            if not new_edges:
                return "noop"
            return core.apply(new_edges)

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
