"""Incremental deletion: the Delete/Rederive (DRed) algorithm.

§6.2 lists "update of data" among the open issues.  Insertions are
monotone and extend the closure in place (:func:`.dispatch.extend_closure`);
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
   :func:`.dispatch.extend_closure` runs) restores everything downstream
   of them.

Every phase joins through the rule set's compiled pivoted bodies
(:class:`~repro.rules.dispatch.CompiledRuleSet`), the ones the closure
itself was computed with, on the closure store's ids
(:class:`~repro.core.interned.IdProbe`): the overdelete fixpoint runs
on id triples, and an endangered fact is decoded once, to be removed.
Phase 3 is goal-directed (:func:`_one_step_derivation`): it unifies
each head that can produce the endangered fact with it, counts every
pivoted body's pivot atom under that unifier, and runs the body whose
pivot has the fewest matches, fed the store's facts at that atom's
ground positions.  The
result equals recomputing the closure from scratch on the surviving
base facts (property-tested in ``tests/test_deletion.py``), at a cost
proportional to the deleted fact's "cone of influence".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.facts import Fact, Variable
from ..core.interned import IdDelta, IdProbe
from ..core.store import FactStore
from ..obs import telemetry as _obs
from .dispatch import (
    ClosureResult, CompiledRuleSet, JoinContext, Justification,
    compile_ruleset, run_rounds)
from .rule import Rule, RuleContext, specs_overlap


@dataclass
class DeletionStats:
    """What one removal did: the facts each phase moved, the head
    unifications phase 3 tried and the pivot facts it fed its compiled
    joins, and ``removed``, the facts the closure lost — the endangered
    ones nothing put back.  That is the closure's whole net change: a
    removal never grows it, since everything the rederive and the
    propagation add was endangered."""

    overdeleted: int = 0
    rederived: int = 0
    propagated: int = 0
    rederive_heads: int = 0
    rederive_candidates: int = 0
    # Not a field: the fields are the counters the ``closure.delete``
    # span carries (``dataclasses.asdict``), and this is facts.
    removed = ()


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

    Returns the removal's :class:`DeletionStats`, whose ``removed`` is
    the closure's net change.  The closure's provenance map (if any)
    is pruned of endangered facts; rederived facts get fresh
    justifications.  With telemetry on, each removal that reaches the
    closure is one ``closure.delete`` span carrying the returned
    counts, and the ``dispatch.rederive_candidates`` counter adds
    phase 3's pivot facts.
    """
    stats = DeletionStats()
    store = result.store
    if deleted not in store:
        return stats
    if compiled is None:
        compiled = compile_ruleset(rules)
    probe = IdProbe(store)
    join = JoinContext(context, probe)
    observing = _obs.ENABLED
    delete_span = (_obs.TELEMETRY.span("closure.delete")
                   if observing else _obs.NULL_SPAN)
    with delete_span as span:
        # Phase 1: overdelete — fixpoint over "derivations through
        # endangered facts", in id space.  Join each compiled body with
        # its pivot atom over the endangered delta and the rest over
        # the (still intact) closure; every head instance present in
        # the closure becomes endangered too.
        endangered_ids = {join.ids(deleted)}
        delta = list(endangered_ids)
        while delta:
            delta = IdDelta(compiled.delta_indexes, delta)
            fresh = []
            for cr in compiled.select(
                    map(join.codec.decode, delta.relationships())):
                for slots in cr.solutions(cr.candidates(delta, join),
                                          probe, join):
                    for head in cr.heads:
                        fact = head(slots)
                        if fact not in endangered_ids and fact in probe:
                            endangered_ids.add(fact)
                            fresh.append(fact)
            delta = fresh

        # Base facts other than the deleted one are never endangered:
        # they are self-supporting.
        endangered = {
            fact for fact in map(join.fact, endangered_ids)
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
        rederived = IdDelta(compiled.delta_indexes)
        for fact in sorted(endangered):
            if fact in store:
                continue
            justification = _one_step_derivation(fact, probe, compiled,
                                                 join, stats)
            if justification is not None:
                store.add(fact)
                rederived.add(join.ids(fact))
                if result.provenance is not None:
                    result.provenance[fact] = justification
        stats.rederived = len(rederived)

        if rederived:
            before = len(store)
            result.iterations += run_rounds(
                probe, rederived, compiled, join,
                result.rule_firings, provenance=result.provenance,
                rule_times=result.rule_times)
            stats.propagated = len(store) - before
        stats.removed = [fact for fact in endangered if fact not in store]

        result.base_count -= 1
        result.derived_count = len(store) - result.base_count
        if observing:
            _obs.TELEMETRY.count("dispatch.rederive_candidates",
                                 stats.rederive_candidates)
            span.set(overdeleted=stats.overdeleted,
                     rederived=stats.rederived,
                     propagated=stats.propagated,
                     rederive_heads=stats.rederive_heads,
                     rederive_candidates=stats.rederive_candidates)
    return stats


def _one_step_derivation(fact: Fact, probe: IdProbe,
                         compiled: CompiledRuleSet, join: JoinContext,
                         stats: DeletionStats) -> Optional[Justification]:
    """One-step derivation of ``fact`` from ``probe``'s store, if any.

    For each head of ``compiled.heads`` that can carry the fact's
    relationship: unify it with the fact, take the store's
    ``count_estimate`` of every pivoted body's pivot atom under that
    unifier (a zero ends the head — that atom has no match), and run
    the body whose pivot has the fewest matches, fed the store's facts
    at the atom's ground positions (as ids).  Counting, not ground
    positions alone, picks the pivot: gen-source's ``(?s, KNOWS,
    AREA)`` holds every member who knows the area, its ``(M0, ≺, ?s)``
    nothing.  Later levels join as compiled for the closure, unseeded
    by the head, so the first solution whose head is the fact's id
    triple is the derivation.
    """
    store, target = probe.store, join.ids(fact)
    for spec, head, index, bodies in compiled.heads:
        if not specs_overlap(spec, fact[1]):
            continue
        stats.rederive_heads += 1
        seed = head.match(fact)
        if seed is None:
            continue
        best = best_atom = None
        fewest = 0
        for cr in bodies:
            atom = cr.rule.body[cr.pivot].substitute(seed)
            count = store.count_estimate(atom)
            if not count:
                best = None
                break
            if best is None or count < fewest:
                best, best_atom, fewest = cr, atom, count
        if best is None:
            continue
        stats.rederive_candidates += fewest
        ground = [(letter, join.codec.encode(component)) for letter, component
                  in zip("srt", best_atom)
                  if not isinstance(component, Variable)]
        key = tuple(i for _, i in ground)
        candidates = probe.lookup("".join(letter for letter, _ in ground),
                                  key[0] if len(key) == 1 else key)
        produced = best.heads[index]
        for slots in best.solutions(candidates, probe, join):
            if produced(slots) == target:
                return Justification(best.rule.name,
                                     best.premises(slots, join))
    return None
