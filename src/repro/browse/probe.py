"""Broadness and minimal generalizations (paper §5.1).

"An entity E' is a minimal generalization of E, if (E,≺,E') and
(E≠E') and there is no third entity X [strictly between].  Notice that
an entity may have several minimal generalizations."

The generalization facts of a database impose a partial hierarchy on
its entities (§2.3).  This module builds that hierarchy from the
closure's explicit ``≺`` facts and answers the two questions probing
needs: *is E' broader than E?* and *what are E's minimal
generalizations?*

Synonyms form mutual-generalization cycles; the hierarchy collapses
each synonym class to one node (replacing an entity by its synonym
yields an equivalent query, which is useless as a retraction), so
minimal generalizations are always *strictly* broader.  Entities with
no generalization at all have ``Δ`` as their single minimal
generalization — exactly the paper's ``(COSTS, ≺, Δ)`` step.

This networkx implementation is the **reference**: the production path
is :class:`repro.browse.lattice.GeneralizationLattice`, an interned,
incrementally maintained equivalent with no third-party dependency.
networkx is a test-only dependency (the ``[test]`` extra), present so
the equivalence suites can differentially check the lattice against
this original.  It is imported when a hierarchy is built, not when this
module is: the package imports this module, and a server never builds
the reference.
"""

from __future__ import annotations

import difflib
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..core.entities import BOTTOM, ISA, TOP
from ..core.facts import Template, Variable
from ..core.store import FactStore


class GeneralizationHierarchy:
    """The ``≺`` partial order of a database, with cover queries."""

    def __init__(self, isa_pairs: Iterable, known_entities: Iterable[str]):
        """Build from explicit (source, target) generalization pairs.

        Args:
            isa_pairs: the ``(s, t)`` of every non-reflexive stored or
                derived ``(s, ≺, t)`` fact.
            known_entities: the active domain; entities outside it are
                "not database entities" and are never generalized (§5.2).
        """
        try:
            import networkx as nx
        except ImportError:
            raise ImportError(
                "networkx is required for the reference"
                " GeneralizationHierarchy; the production path is"
                " repro.browse.lattice.GeneralizationLattice") from None
        self._known: Set[str] = set(known_entities)
        graph = nx.DiGraph()
        graph.add_nodes_from(self._known)
        for source, target in isa_pairs:
            if source != target and TOP not in (source, target) \
                    and BOTTOM not in (source, target):
                graph.add_edge(source, target)
        # Collapse synonym classes (mutual-≺ cycles) so the order is a
        # DAG, then take covers via transitive reduction.
        self._condensed = nx.condensation(graph)
        self._component_of: Dict[str, int] = self._condensed.graph["mapping"]
        if self._condensed.number_of_edges():
            self._covers = nx.transitive_reduction(self._condensed)
        else:
            self._covers = self._condensed.copy()
            self._covers.remove_edges_from(list(self._covers.edges()))
        self._descendants_cache: Dict[int, FrozenSet[int]] = {}

    @classmethod
    def from_store(cls, store: FactStore) -> "GeneralizationHierarchy":
        """Build from a (closed) fact store."""
        pattern = Template(Variable("s"), ISA, Variable("t"))
        pairs = ((f.source, f.target) for f in store.match(pattern))
        return cls(pairs, store.entities())

    # ------------------------------------------------------------------
    def knows(self, entity: str) -> bool:
        """True if ``entity`` is a database entity (or Δ/∇)."""
        return entity in self._known or entity in (TOP, BOTTOM)

    def closest_known(self, name: str, limit: int = 3,
                      cutoff: float = 0.6) -> List[str]:
        """Database entities with names close to ``name``.

        The follow-up to §5.2's "no such database entities": the user
        probably misspelled one — these are the candidates, best first.
        """
        return difflib.get_close_matches(
            name, sorted(self._known), n=limit, cutoff=cutoff)

    def synonym_class(self, entity: str) -> FrozenSet[str]:
        """The entity's synonym class (itself if it has no synonyms)."""
        component = self._component_of.get(entity)
        if component is None:
            return frozenset({entity})
        return frozenset(self._condensed.nodes[component]["members"])

    def minimal_generalizations(self, entity: str) -> FrozenSet[str]:
        """The covers of ``entity`` in the generalization order.

        Returns ``{Δ}`` for maximal database entities, and the empty
        set for ``Δ``/``∇`` themselves and for entities that are not in
        the database (the misspelling case: "it will never be
        replaced", §5.2).
        """
        if entity in (TOP, BOTTOM):
            return frozenset()
        component = self._component_of.get(entity)
        if component is None:
            return frozenset()
        covers: Set[str] = set()
        for successor in self._covers.successors(component):
            covers.update(self._condensed.nodes[successor]["members"])
        if not covers:
            return frozenset({TOP})
        return frozenset(covers)

    def minimal_specializations(self, entity: str) -> FrozenSet[str]:
        """The co-covers of ``entity``: its minimal *specializations*.

        Broadening a query replaces its **source** entity downward
        (§5.2: FRESHMAN instead of STUDENT), because rule (1) derives
        ``(s', r, t)`` from ``(s, r, t)`` for every ``s' ≺ s``.
        Returns ``{∇}`` for minimal database entities, and the empty
        set for ``Δ``/``∇`` and for unknown entities.
        """
        if entity in (TOP, BOTTOM):
            return frozenset()
        component = self._component_of.get(entity)
        if component is None:
            return frozenset()
        co_covers: Set[str] = set()
        for predecessor in self._covers.predecessors(component):
            co_covers.update(self._condensed.nodes[predecessor]["members"])
        if not co_covers:
            return frozenset({BOTTOM})
        return frozenset(co_covers)

    def _strict_ancestors(self, component: int) -> FrozenSet[int]:
        cached = self._descendants_cache.get(component)
        if cached is None:
            import networkx as nx

            cached = frozenset(nx.descendants(self._condensed, component))
            self._descendants_cache[component] = cached
        return cached

    def generalizes(self, broad: str, narrow: str) -> bool:
        """True if ``(narrow, ≺, broad)`` holds in the hierarchy —
        reflexively, through synonyms, or via ``Δ``/``∇``."""
        if broad == TOP or narrow == BOTTOM:
            return True
        if narrow == broad:
            return True
        narrow_component = self._component_of.get(narrow)
        broad_component = self._component_of.get(broad)
        if narrow_component is None or broad_component is None:
            return False
        if narrow_component == broad_component:
            return True
        return broad_component in self._strict_ancestors(narrow_component)

    def strictly_generalizes(self, broad: str, narrow: str) -> bool:
        """True if ``broad`` is strictly above ``narrow`` (synonyms and
        the entity itself excluded)."""
        if broad == narrow:
            return False
        if broad == TOP:
            return narrow != TOP
        if narrow == BOTTOM:
            return broad != BOTTOM
        narrow_component = self._component_of.get(narrow)
        broad_component = self._component_of.get(broad)
        if narrow_component is None or broad_component is None:
            return False
        return (narrow_component != broad_component
                and broad_component in self._strict_ancestors(narrow_component))

    def generalization_chain_depth(self, entity: str) -> int:
        """Length of the longest strict chain from ``entity`` up to a
        maximal entity (0 for maximal entities); used by benchmarks."""
        component = self._component_of.get(entity)
        if component is None:
            return 0
        depth = 0
        frontier = {component}
        while True:
            successors: Set[int] = set()
            for node in frontier:
                successors.update(self._covers.successors(node))
            if not successors:
                return depth
            depth += 1
            frontier = successors
