"""Incremental deletion: the Delete/Rederive (DRed) algorithm.

§6.2 lists "update of data" among the open issues.  Insertions are
monotone and extend the closure in place (:func:`..engine.extend_closure`);
deletions are not — a removed fact may invalidate derivations, which
may invalidate further derivations, while some of the endangered facts
survive via alternative derivations.  DRed handles this in three
classic phases:

1. **Overdelete** — compute the facts with *some* derivation through
   the deleted fact (a fixpoint in deletion space: a derived fact is
   endangered when a rule instantiation that produces it uses an
   endangered premise);
2. **Remove** — take all endangered facts out of the closure (stored
   facts other than the deleted one stay);
3. **Rederive** — endangered facts that still have a one-step
   derivation from surviving facts are put back, and insertion
   propagation (:func:`..engine.extend_closure`'s machinery) restores
   everything downstream of them.

The result equals recomputing the closure from scratch on the surviving
base facts (property-tested in ``tests/test_deletion.py``), at a cost
proportional to the deleted fact's "cone of influence".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, Iterable, List, Optional, Sequence, Set, Tuple)

from ..core.facts import Fact, Template
from ..core.store import FactStore
from .engine import (
    ClosureResult,
    Justification,
    _checkable,
    _fire,
    _premises,
    _semi_naive_rounds,
)
from .rule import Rule, RuleContext


@dataclass
class DeletionStats:
    """Work counters for tests and benchmarks."""

    overdeleted: int = 0
    rederived: int = 0
    propagated: int = 0


def delete_with_rederivation(result: ClosureResult, base: FactStore,
                             deleted: Fact, rules: Sequence[Rule],
                             context: RuleContext,
                             pivoted: Sequence[Tuple[Rule, Rule]]
                             ) -> DeletionStats:
    """Maintain a closure under deletion of one base fact.

    Args:
        result: the cached closure; its store is updated **in place**.
        base: the base store, with ``deleted`` already removed from it.
        deleted: the base fact that was removed.
        rules: the enabled rules.
        context: guard context.
        pivoted: the rules' pivot reorderings
            (:func:`~repro.rules.engine._pivoted_rules`;
            :meth:`RuleRegistry.pivoted` caches them).

    The closure's provenance map (if any) is pruned of endangered
    facts; rederived facts get fresh justifications.
    """
    stats = DeletionStats()
    store = result.store
    if deleted not in store:
        return stats

    # Phase 1: overdelete — fixpoint over "derivations through
    # endangered facts".  Join each rule with one body atom pivoted
    # over the endangered delta and the rest over the (still intact)
    # closure; every head instance present in the closure becomes
    # endangered too.
    endangered: Set[Fact] = {deleted}
    delta: List[Fact] = [deleted]
    while delta:
        delta_store = FactStore(delta)
        fresh: List[Fact] = []
        for rule, reordered in pivoted:
            arity = len(reordered.body)
            sources = [delta_store] + [store] * (arity - 1)
            for fact, _binding in _fire(reordered, sources, context):
                if fact in store and fact not in endangered:
                    endangered.add(fact)
                    fresh.append(fact)
        delta = fresh

    # Base facts other than the deleted one are never endangered: they
    # are self-supporting.
    endangered = {
        fact for fact in endangered if fact == deleted or fact not in base
    }
    stats.overdeleted = len(endangered)

    # Phase 2: remove.
    for fact in endangered:
        store.discard(fact)
        if result.provenance is not None:
            result.provenance.pop(fact, None)

    # Phase 3: rederive — endangered facts with a one-step derivation
    # from the surviving closure come back; extend_closure-style
    # propagation then restores their consequences.  Goal-directed:
    # only derivations *of endangered facts* are attempted, so the
    # cost tracks the deleted fact's cone of influence, not the heap.
    rederived: List[Fact] = []
    for fact in sorted(endangered):
        if fact in store:
            continue
        justification = _rederive_once(fact, store, rules, context)
        if justification is not None:
            store.add(fact)
            rederived.append(fact)
            if result.provenance is not None:
                result.provenance[fact] = justification
    stats.rederived = len(rederived)

    if rederived:
        before = len(store)
        result.iterations += _semi_naive_rounds(
            store, FactStore(rederived), pivoted, context,
            result.rule_firings, provenance=result.provenance)
        stats.propagated = len(store) - before

    result.base_count -= 1
    result.derived_count = len(store) - result.base_count
    return stats


def _rederive_once(fact: Fact, store: FactStore, rules: Sequence[Rule],
                   context: RuleContext) -> Optional[Justification]:
    """One-step derivation of ``fact`` from ``store``, if any."""
    from .lazy import _unify_head

    goal = Template(*fact)
    for rule in rules:
        for head in rule.head:
            seed = _unify_head(head, goal)
            if seed is None:
                continue
            for binding in _join_body(rule, dict(seed), store, context):
                derived = head.substitute(binding).to_fact()
                if derived == fact:
                    return Justification(rule.name,
                                         _premises(rule, binding))
    return None


def _join_body(rule: Rule, binding, store: FactStore,
               context: RuleContext):
    """Join a rule body against one store under an initial binding.

    The next atom is the one ``store.count_estimate`` calls smallest
    under the bindings so far (body order breaks ties), so a bound
    head narrows every later probe instead of waiting behind an
    unselective first atom; guards are checked as soon as their
    variables are bound.
    """
    def extend(atoms, current, remaining):
        if not atoms:
            if all(c.holds(current, context) for c in remaining):
                yield current
            return
        pick = 0 if len(atoms) == 1 else min(
            range(len(atoms)),
            key=lambda i: store.count_estimate(atoms[i], current))
        later = atoms[:pick] + atoms[pick + 1:]
        for extended in store.solutions(atoms[pick], current):
            bound = set(extended)
            ready = _checkable(remaining, bound)
            if all(remaining[i].holds(extended, context) for i in ready):
                ready_set = set(ready)
                rest = [c for i, c in enumerate(remaining)
                        if i not in ready_set]
                yield from extend(later, extended, rest)

    yield from extend(list(rule.body), binding, list(rule.conditions))
