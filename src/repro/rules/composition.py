"""Inference by composition (paper §3.7) with the ``limit(n)``
operator (§6.1), materialised: the oracle the read-time relation
(:class:`repro.virtual.composition.Composition`) is tested against.
No serving path imports this module.

When the target of one fact is the source of another, their composition
is the fact ``(s1, r1.t1.r2, t2)`` — a new *path* relationship named
after the relationships traversed and the intermediate entity, exactly
as in the paper's ``(TOM, ENROLLED-IN.CS100.TAUGHT-BY, HARRY)``.

Two containment mechanisms from the paper are implemented:

* **Acyclicity guard** — the source of the first fact must differ from
  the target of the second, "otherwise ... an infinite number of
  different composition facts would be generated".
* **Chain-length limit** — ``limit(n)`` bounds the number of primitive
  facts chained: ``n=1`` disables composition, ``n=2`` allows single
  compositions whose results cannot compose further, and so on.
  ``limit(None)`` permits unlimited composition (the paper's n = ∞).

For ``limit(None)`` the paper's endpoint guard is not by itself enough
to terminate on cyclic data (a 3-cycle A→B→C→A extends forever while
its endpoints keep differing), so unlimited composition additionally
restricts chains to *simple paths* — no intermediate entity revisited.
Bounded limits use exactly the paper's guard.  See DESIGN.md §5.

Composition never chains through the special relationships (``≺ ∈ ≈ ↔
⊥``): a path through a generalization edge is not an association
between the endpoints in the paper's sense, and the standard rules
already propagate along those edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.entities import COMPOSITION_OFF, is_special_relationship
from ..core.facts import Fact
from ..core.store import FactStore
from ..virtual.composition import composable, compose_pair

__all__ = ["COMPOSITION_OFF", "CompositionResult", "composable",
           "compose_closure", "compose_pair"]


@dataclass
class CompositionResult:
    """Composed facts plus bookkeeping for benchmarks."""

    facts: Set[Fact]
    rounds: int

    @property
    def count(self) -> int:
        return len(self.facts)


def compose_closure(store: FactStore,
                    limit: Optional[int] = 2) -> CompositionResult:
    """All composition facts over ``store``, up to chain length ``limit``.

    Args:
        store: the facts to compose (typically the standard-rule
            closure; special-relationship facts are skipped).
        limit: maximum number of primitive facts per chain;
            ``COMPOSITION_OFF`` (1) yields nothing, ``None`` means
            unlimited (n = ∞).

    Returns:
        A :class:`CompositionResult`; ``store`` itself is not modified.

    The evaluation is delta-driven: each round composes only pairs in
    which at least one side is a path discovered in the previous round,
    so chains of length *k* appear in round *k - 1*.
    """
    if limit is not None and limit <= COMPOSITION_OFF:
        return CompositionResult(facts=set(), rounds=0)

    primitives: List[Fact] = [
        f for f in store if not is_special_relationship(f.relationship)
    ]
    by_source: Dict[str, List[Fact]] = {}
    by_target: Dict[str, List[Fact]] = {}
    lengths: Dict[Fact, int] = {}
    visited: Dict[Fact, frozenset] = {}
    simple_paths_only = limit is None
    for fact in primitives:
        lengths[fact] = 1
        visited[fact] = frozenset((fact.source, fact.target))
        by_source.setdefault(fact.source, []).append(fact)
        by_target.setdefault(fact.target, []).append(fact)

    composed: Set[Fact] = set()
    delta: List[Fact] = list(primitives)
    rounds = 0

    def try_compose(first: Fact, second: Fact, fresh: List[Fact]) -> None:
        total = lengths[first] + lengths[second]
        if limit is not None and total > limit:
            return
        if not composable(first, second):
            return
        if simple_paths_only:
            # Chains may only meet at the join entity; this keeps
            # unlimited composition finite on cyclic data.  Self-loops
            # can never lie on a simple path (their visited set is a
            # single entity, which would defeat the overlap check and
            # let names grow forever).
            if (first.source == first.target
                    or second.source == second.target):
                return
            overlap = visited[first] & visited[second]
            if overlap != frozenset((first.target,)):
                return
        result = compose_pair(first, second)
        if result in composed or result in store:
            return
        composed.add(result)
        lengths[result] = total
        visited[result] = visited[first] | visited[second]
        fresh.append(result)

    while delta:
        rounds += 1
        fresh: List[Fact] = []
        for new_fact in delta:
            # new fact on the left: (new) ∘ (existing)
            for right in by_source.get(new_fact.target, ()):
                try_compose(new_fact, right, fresh)
            # new fact on the right: (existing) ∘ (new)
            for left in by_target.get(new_fact.source, ()):
                if left is new_fact:
                    continue  # already tried above when left == right
                try_compose(left, new_fact, fresh)
        for fact in fresh:
            by_source.setdefault(fact.source, []).append(fact)
            by_target.setdefault(fact.target, []).append(fact)
        delta = fresh
    return CompositionResult(facts=composed, rounds=rounds)
