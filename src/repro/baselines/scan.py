"""An unindexed fact store: the "extensive scan" baseline.

The paper's introduction argues that finding "something interesting
about John" in an organized system requires either schema knowledge or
"an extensive scan".  This store *is* that extensive scan: the same
interface as :class:`~repro.core.store.FactStore` but every template
match walks the whole heap.  Benchmark F5 plots the two against each
other as the heap grows.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set

from ..core.facts import Binding, Fact, Template


class ScanStore:
    """A list of facts; matching is a full scan.

    It keeps the whole store interface, methods no test calls
    included, so it can stand in wherever a store does."""

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts: List[Fact] = []
        self._present: Set[Fact] = set()
        for fact in facts:
            self.add(fact)

    def add(self, fact: Fact) -> bool:
        if fact in self._present:
            return False
        self._present.add(fact)
        self._facts.append(fact)
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        return sum(1 for f in facts if self.add(f))

    def discard(self, fact: Fact) -> bool:
        if fact not in self._present:
            return False
        self._present.remove(fact)
        self._facts.remove(fact)
        return True

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._present

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def entities(self) -> Set[str]:
        result: Set[str] = set()
        for fact in self._facts:
            result.update(fact)
        return result

    def relationships(self) -> Set[str]:
        return {fact.relationship for fact in self._facts}

    def has_entity(self, entity: str) -> bool:
        return any(entity in fact for fact in self._facts)

    def match(self, pattern: Template,
              binding: Optional[Binding] = None) -> Iterator[Fact]:
        """Full-scan template matching."""
        if binding:
            pattern = pattern.substitute(binding)
        for fact in self._facts:
            if pattern.match(fact) is not None:
                yield fact

    def solutions(self, pattern: Template,
                  binding: Optional[Binding] = None) -> Iterator[Binding]:
        base = binding or {}
        substituted = pattern.substitute(base) if base else pattern
        for fact in self._facts:
            extended = substituted.match(fact, base)
            if extended is not None:
                yield extended

    def count_estimate(self, pattern: Template,
                       binding: Optional[Binding] = None) -> int:
        """A scan store cannot estimate without scanning; report the
        heap size (which is also its true cost)."""
        return len(self._facts)

    def facts_mentioning(self, entity: str) -> Set[Fact]:
        return {fact for fact in self._facts if entity in fact}
