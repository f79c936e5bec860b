"""Integrity: contradiction detection over the closure (§2.5, §3.5).

"A loosely structured database is a set of facts P and a set of rules
R, such that the closure of P under R is free of contradictions."

Two facts ``(x, r, y)`` and ``(x, r', y)`` are contradictory if the
relationship pair is declared contradictory — ``(r, ⊥, r')`` — or if
one of them is a mathematical fact whose computed truth value is false
(storing ``(5, >, 8)`` contradicts the virtual ``(5, <, 8)``).

Integrity *constraints* are ordinary rules (§2.5): they derive required
facts into the closure, and a violation manifests as a contradiction
between a derived fact and the (stored or virtual) state — e.g.
``(x, ∈, AGE) ⇒ (x, >, 0)`` derives ``(-5, >, 0)``, which the checker
flags against the computed ``(-5, <, 0)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.entities import CONTRA, MATH_RELATIONSHIPS
from ..core.facts import Fact, Template, Variable
from ..core.store import FactStore
from ..virtual.math_facts import compare


@dataclass(frozen=True)
class Violation:
    """One contradiction found in the closure."""

    fact: Fact
    conflicting: Optional[Fact]
    reason: str

    def __str__(self) -> str:
        if self.conflicting is None:
            return f"{self.fact}: {self.reason}"
        return f"{self.fact} vs {self.conflicting}: {self.reason}"


def contradictory_pairs(store: FactStore) -> Iterator[Tuple[str, str]]:
    """All declared contradictory relationship pairs ``(r, r')``."""
    pattern = Template(Variable("r"), CONTRA, Variable("r2"))
    for fact in store.match(pattern):
        yield fact.source, fact.target


def find_contradictions(store: FactStore) -> List[Violation]:
    """Every contradiction in a (closed) store.

    Args:
        store: the closure — base facts plus everything derived: a
            store, or anything that answers ``match`` and ``in`` as
            one (a view's :attr:`~repro.virtual.computed.FactView.closure`).

    Returns:
        Violations, in deterministic order.  Symmetric duplicates
        (``A vs B`` and ``B vs A``) are collapsed to one report.
    """
    violations: List[Violation] = []
    seen_pairs = set()

    # 1. Declared contradictions: (x,r,y) ∧ (x,r',y) with (r,⊥,r').
    wildcard_s, wildcard_t = Variable("x"), Variable("y")
    for left_rel, right_rel in sorted(set(contradictory_pairs(store))):
        for fact in store.match(Template(wildcard_s, left_rel, wildcard_t)):
            conflicting = Fact(fact.source, right_rel, fact.target)
            if conflicting not in store:
                continue
            key = frozenset((fact, conflicting))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            violations.append(
                Violation(
                    fact=fact,
                    conflicting=conflicting,
                    reason=f"({left_rel}, ⊥, {right_rel}) is declared"))

    # 2. Stored mathematical facts that are computationally false.
    for fact in itertools.chain.from_iterable(
            store.match(Template(wildcard_s, relationship, wildcard_t))
            for relationship in MATH_RELATIONSHIPS):
        if not compare(fact.relationship, fact.source, fact.target):
            violations.append(
                Violation(
                    fact=fact,
                    conflicting=None,
                    reason="contradicts the mathematical facts (§3.6)"))

    violations.sort(key=lambda v: (v.fact, v.conflicting or v.fact, v.reason))
    return violations


def is_consistent(store: FactStore) -> bool:
    """True if the store contains no contradiction."""
    return not find_contradictions(store)


@dataclass(frozen=True)
class Diagnosis:
    """A violation traced to the stored facts responsible.

    ``culprits`` is the union of the stored support of both
    conflicting facts: removing at least one culprit from every
    derivation is what repairs the contradiction.  When the conflicting
    facts are themselves stored, they are their own culprits.
    """

    violation: Violation
    culprits: Tuple[Fact, ...]

    def render(self) -> str:
        lines = [str(self.violation), "  stored facts responsible:"]
        lines.extend(f"    {fact}" for fact in self.culprits)
        return "\n".join(lines)


def diagnose(violations, base: FactStore, explain) -> List[Diagnosis]:
    """Trace each violation to its stored support.

    Args:
        violations: from :func:`find_contradictions` over the closure.
        base: the stored facts.
        explain: a closure fact's
            :class:`~repro.rules.provenance.DerivationTree` (a traced
            database's).
    """
    diagnoses: List[Diagnosis] = []
    for violation in violations:
        culprits = set()
        for fact in (violation.fact, violation.conflicting):
            if fact is None:
                continue
            if fact in base:
                culprits.add(fact)
            else:
                culprits |= explain(fact).stored_support()
        diagnoses.append(Diagnosis(violation=violation,
                                   culprits=tuple(sorted(culprits))))
    return diagnoses
