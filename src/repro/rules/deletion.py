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
   propagation (:func:`..dispatch.run_rounds`, the rounds
   :func:`..engine.extend_closure` runs) restores everything downstream
   of them.

Both forward phases join through the rule set's compiled pivoted
bodies (:class:`~repro.rules.dispatch.CompiledRuleSet`), the ones the
closure itself was computed with; phase 3's one-step check is the only
goal-directed join (:func:`_join_body`, seeded by unifying a rule head
with the endangered fact).  The result equals recomputing the closure
from scratch on the surviving base facts (property-tested in
``tests/test_deletion.py``), at a cost proportional to the deleted
fact's "cone of influence".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..core.facts import Binding, Fact
from ..core.store import FactStore
from ..obs import telemetry as _obs
from .dispatch import (
    CompiledRuleSet, RoundDelta, _materialize, compile_ruleset, run_rounds)
from .engine import ClosureResult, Justification, _checkable, _premises
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
                             compiled: Optional[CompiledRuleSet] = None
                             ) -> DeletionStats:
    """Maintain a closure under deletion of one base fact.

    Args:
        result: the cached closure; its store is updated **in place**.
        base: the base store, with ``deleted`` already removed from it.
        deleted: the base fact that was removed.
        rules: the enabled rules.
        context: guard context.
        compiled: the :class:`~repro.rules.dispatch.CompiledRuleSet` of
            ``rules`` (:meth:`RuleRegistry.compiled` caches one);
            compiled here when not given.

    The closure's provenance map (if any) is pruned of endangered
    facts; rederived facts get fresh justifications.  With telemetry
    on, each removal that reaches the closure is one ``closure.delete``
    span carrying the returned counts.
    """
    stats = DeletionStats()
    store = result.store
    if deleted not in store:
        return stats
    if compiled is None:
        compiled = compile_ruleset(rules)
    observing = _obs.ENABLED
    delete_span = (_obs.TELEMETRY.span("closure.delete")
                   if observing else _obs.NULL_SPAN)
    with delete_span as span:
        # Phase 1: overdelete — fixpoint over "derivations through
        # endangered facts".  Join each compiled body with its pivot
        # atom over the endangered delta and the rest over the (still
        # intact) closure; every head instance present in the closure
        # becomes endangered too.
        group = compiled.all_rules
        endangered: Set[Fact] = {deleted}
        delta: List[Fact] = [deleted]
        while delta:
            delta_store = RoundDelta(group.delta_indexes, delta)
            fresh: List[Fact] = []
            for cr in group.select(delta_store.relationships()):
                for slots in cr.solutions(delta_store, store, context):
                    for spec in cr.heads:
                        fact = _materialize(spec, slots)
                        if fact in store and fact not in endangered:
                            endangered.add(fact)
                            fresh.append(fact)
            delta = fresh

        # Base facts other than the deleted one are never endangered:
        # they are self-supporting.
        endangered = {
            fact for fact in endangered
            if fact == deleted or fact not in base
        }
        stats.overdeleted = len(endangered)

        # Phase 2: remove.
        for fact in endangered:
            store.discard(fact)
            if result.provenance is not None:
                result.provenance.pop(fact, None)

        # Phase 3: rederive — endangered facts with a one-step
        # derivation from the surviving closure come back;
        # extend_closure's rounds then restore their consequences.
        # Goal-directed: only derivations *of endangered facts* are
        # attempted, so the cost tracks the deleted fact's cone of
        # influence, not the heap.
        rederived = RoundDelta(group.delta_indexes)
        for fact in sorted(endangered):
            if fact in store:
                continue
            justification = _rederive_once(fact, store, rules, context)
            if justification is not None:
                store.add(fact)
                rederived.add(fact)
                if result.provenance is not None:
                    result.provenance[fact] = justification
        stats.rederived = len(rederived)

        if rederived:
            before = len(store)
            result.iterations += run_rounds(
                store, rederived, group, context,
                result.rule_firings, provenance=result.provenance,
                rule_times=result.rule_times)
            stats.propagated = len(store) - before

        result.base_count -= 1
        result.derived_count = len(store) - result.base_count
        if observing:
            span.set(overdeleted=stats.overdeleted,
                     rederived=stats.rederived,
                     propagated=stats.propagated)
    return stats


def _rederive_once(fact: Fact, store: FactStore, rules: Sequence[Rule],
                   context: RuleContext) -> Optional[Justification]:
    """One-step derivation of ``fact`` from ``store``, if any: a rule
    whose head matches the fact and whose body, seeded with that
    match's bindings, has a solution."""
    for rule in rules:
        for head in rule.head:
            seed = head.match(fact)
            if seed is None:
                continue
            binding = next(_join_body(rule, seed, store, context), None)
            if binding is not None:
                return Justification(rule.name, _premises(rule, binding))
    return None


def _join_body(rule: Rule, binding: Binding, store: FactStore,
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
