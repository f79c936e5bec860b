"""Derivation provenance: why is a fact in the closure?

The paper's probing answers "why did my query *fail*?"; this module
answers the complementary question — why does an answer *hold* — by
recording, for every derived fact, the rule and premises that first
produced it, and unwinding them into a derivation tree::

    (JOHN, EARNS, SALARY)   [mem-source]
    ├── (JOHN, ∈, EMPLOYEE)   [stored]
    └── (EMPLOYEE, EARNS, SALARY)   [stored]

Provenance also sharpens integrity reports: a contradiction between
two *derived* facts can be traced back to the stored facts responsible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.entities import compose_relationship, is_special_relationship
from ..core.errors import ReproError
from ..core.facts import Fact
from ..core.store import FactStore
from .dispatch import ClosureResult, Justification

#: Justification rule name for composition-derived facts.
COMPOSITION_RULE = "composition"


@dataclass
class DerivationTree:
    """One fact with the full derivation beneath it."""

    fact: Fact
    rule: Optional[str]  # None for stored facts
    premises: Tuple["DerivationTree", ...] = ()

    @property
    def is_stored(self) -> bool:
        return self.rule is None

    def depth(self) -> int:
        """Length of the longest derivation chain under this fact."""
        if not self.premises:
            return 0
        return 1 + max(premise.depth() for premise in self.premises)

    def stored_support(self) -> Set[Fact]:
        """The stored facts this derivation ultimately rests on."""
        if self.is_stored:
            return {self.fact}
        support: Set[Fact] = set()
        for premise in self.premises:
            support |= premise.stored_support()
        return support

    def render(self, indent: str = "") -> str:
        label = "stored" if self.is_stored else self.rule
        lines = [f"{self.fact}   [{label}]"]
        for index, premise in enumerate(self.premises):
            last = index == len(self.premises) - 1
            connector = "└── " if last else "├── "
            continuation = "    " if last else "│   "
            subtree = premise.render().splitlines()
            lines.append(indent + connector + subtree[0])
            lines.extend(indent + continuation + line
                         for line in subtree[1:])
        return "\n".join(lines)


class ProvenanceError(ReproError, LookupError):
    """The fact is not in the closure, or tracing was not enabled."""


def explain_fact(fact: Fact, base: FactStore,
                 provenance: Dict[Fact, Justification],
                 _seen: Optional[Set[Fact]] = None) -> DerivationTree:
    """Build the derivation tree of ``fact``.

    Args:
        fact: the fact to explain.
        base: the stored facts (derivation leaves).
        provenance: the engine's justification map.

    Raises:
        ProvenanceError: if the fact is neither stored nor justified.
    """
    if fact in base:
        return DerivationTree(fact=fact, rule=None)
    justification = provenance.get(fact)
    if justification is None:
        raise ProvenanceError(
            f"{fact} is not stored and has no recorded justification"
            " (is it in the closure? was tracing enabled?)")
    seen = _seen if _seen is not None else set()
    if fact in seen:
        # The engine records the *first* justification of every fact,
        # so justification edges always point at facts derived earlier
        # and cycles cannot occur; guard anyway for malformed maps.
        raise ProvenanceError(f"cyclic justification at {fact}")
    seen = seen | {fact}
    premises = tuple(
        explain_fact(premise, base, provenance, seen)
        for premise in justification.premises)
    return DerivationTree(fact=fact, rule=justification.rule,
                          premises=premises)


def add_composition_provenance(
        provenance: Dict[Fact, Justification],
        chain_lengths: Dict[Fact, int],
        composed: Set[Fact]) -> None:
    """Record justifications for composition facts.

    The composed name encodes its own derivation — ``r1.t.r2`` came
    from ``(s, r1, t)`` and ``(t, r2, target)`` — so premises are
    reconstructed by splitting the relationship at the intermediate
    entity with the shorter chain consistent with the recorded lengths.
    """
    for fact in composed:
        if fact in provenance:
            continue
        split = _split_composed(fact, chain_lengths)
        if split is not None:
            provenance[fact] = Justification(COMPOSITION_RULE, split)


def _split_composed(fact: Fact,
                    chain_lengths: Dict[Fact, int]) -> Optional[Tuple[Fact, Fact]]:
    """Recover one (left, right) decomposition of a composed fact."""
    name = fact.relationship
    segments = name.split(".")
    # Try every odd split point (relationship names occupy even
    # indices, intermediates odd ones) and keep the first whose parts
    # are known facts.
    for cut in range(1, len(segments), 2):
        left_rel = ".".join(segments[:cut])
        intermediate = segments[cut]
        right_rel = ".".join(segments[cut + 1:])
        if not right_rel:
            continue
        left = Fact(fact.source, left_rel, intermediate)
        right = Fact(intermediate, right_rel, fact.target)
        if left in chain_lengths and right in chain_lengths:
            return left, right
    return None
