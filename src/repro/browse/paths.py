"""Association paths without materialized composition.

§3.7 observes that the length of a composition chain is "the semantic
distance between these entities", and §4.1 uses ``(JOHN, x, MARY)`` to
ask for "all the different associations between them".  Materializing
every composition fact is expensive (benchmark F1); this module finds
the same associations *algorithmically* — a bounded breadth-first
search over the fact graph — so browsers can ask "how are these two
entities related?" without ever paying for the full composed closure.

A path mirrors the paper's composed-relationship naming::

    JOHN --FAVORITE-MUSIC--> PC#9-WAM --COMPOSED-BY--> MOZART
    ==  FAVORITE-MUSIC.PC#9-WAM.COMPOSED-BY
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..core.entities import (
    compose_relationship,
    is_composed,
    is_special_relationship,
)
from ..core.facts import Fact, Template, Variable
from ..virtual.computed import FactView


@dataclass(frozen=True)
class AssociationPath:
    """A chain of facts linking a source entity to a target entity."""

    facts: Tuple[Fact, ...]

    @property
    def length(self) -> int:
        """The paper's semantic distance: primitive facts chained."""
        return len(self.facts)

    def relationship(self) -> str:
        """The composed relationship name this path denotes (§3.7)."""
        name = self.facts[0].relationship
        for fact in self.facts[1:]:
            name = compose_relationship(name, fact.source,
                                        fact.relationship)
        return name

    def entities(self) -> Tuple[str, ...]:
        """Source, intermediates, target — in order."""
        return (self.facts[0].source,) + tuple(
            fact.target for fact in self.facts)

    def render(self) -> str:
        parts = [self.facts[0].source]
        for fact in self.facts:
            parts.append(f"--{fact.relationship}--> {fact.target}")
        return " ".join(parts)


def association_paths(view: FactView, source: str, target: str,
                      max_length: int = 3,
                      limit: Optional[int] = None) -> List[AssociationPath]:
    """All simple association paths from ``source`` to ``target``.

    Args:
        view: the closure view to walk (derived facts included;
            special-relationship facts are not traversed, matching
            composition's rule).
        source, target: the two entities to relate.
        max_length: maximum primitive facts per chain — the ``limit(n)``
            analogue, and the semantic-distance cutoff.
        limit: stop after this many paths (None = all).

    Returns:
        Paths sorted by length then lexicographically, so the most
        semantically significant associations come first (§6.1: "as
        the chain of compositions gets longer, the relationship …
        becomes less significant").
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    results: List[AssociationPath] = []
    # BFS over (entity, path) states; simple paths only.
    queue: deque = deque()
    queue.append((source, ()))
    relationship_var = Variable("__r__")
    target_var = Variable("__t__")
    while queue:
        entity, path = queue.popleft()
        if len(path) >= max_length:
            continue
        visited: Set[str] = {source}
        visited.update(fact.target for fact in path)
        for fact in sorted(view.match(
                Template(entity, relationship_var, target_var))):
            if is_special_relationship(fact.relationship):
                continue
            # Materialized composition facts (when limit(n) is on) are
            # shortcuts over primitive steps; walking them would count
            # the same association twice at inflated length.
            if is_composed(fact.relationship):
                continue
            extended = path + (fact,)
            if fact.target == target:
                results.append(AssociationPath(facts=extended))
                if limit is not None and len(results) >= limit:
                    return _sorted_paths(results)
                continue
            if fact.target in visited or fact.target == source:
                continue
            queue.append((fact.target, extended))
    return _sorted_paths(results)


def _sorted_paths(paths: Sequence[AssociationPath]) -> List[AssociationPath]:
    return sorted(paths, key=lambda p: (p.length, p.facts))


def semantic_distance(view: FactView, source: str, target: str,
                      max_length: int = 5) -> Optional[int]:
    """The length of the shortest association path, or None if the
    entities are not connected within ``max_length`` (§3.7's
    "semantic distance")."""
    paths = association_paths(view, source, target,
                              max_length=max_length, limit=1)
    return paths[0].length if paths else None
