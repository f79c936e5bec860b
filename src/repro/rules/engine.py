"""Forward-chaining closure computation (paper §2.6).

"Given a set of facts P and a set of rules R, the set of facts that may
be obtained by repeated application of the rules in R to the facts in P
is called the closure of P under R."

The engine :class:`~repro.db.Database` and ``serve/`` run is the
compiled one in :mod:`.dispatch`.  The two interpreted engines here are
the *references* it is checked against — the equivalence suites and
benchmark F2 call them directly, and nothing on a served path does:

* :func:`naive_closure` — re-derives everything each round until a
  fixpoint; the textbook baseline (benchmark F2).
* :func:`semi_naive_closure` — each round only joins rule bodies
  through the *delta* (facts new in the previous round), so quiescent
  parts of the database are never revisited.

Both return a :class:`ClosureResult` carrying the closed store and
evaluation statistics — the result type every engine shares, together
with :class:`Justification` and :func:`extend_closure` (insertion
maintenance, which runs the compiled rounds).

Example::

    from repro import Database
    from repro.rules import STANDARD_RULES, semi_naive_closure

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    db.add("EMPLOYEE", "EARNS", "SALARY")
    reference = semi_naive_closure(db.facts, STANDARD_RULES,
                                   db.rule_context())
    assert set(db.closure().store) == set(reference.store)
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core import deadline as _deadline
from ..core.facts import Binding, Fact, Template, Variable
from ..core.store import FactStore, seed_store
from ..obs import telemetry as _obs
from .rule import Condition, Rule, RuleContext

#: Reserved :attr:`ClosureResult.rule_times` key for the round-end
#: store-update ("apply") phase — time spent inserting fresh facts,
#: attributable to no single rule.
APPLY = "(apply)"


@dataclass(frozen=True)
class Justification:
    """Why one derived fact is in the closure: the rule that produced
    it and the (already-present) premise facts the rule's body matched.
    Base facts carry no justification."""

    rule: str
    premises: Tuple[Fact, ...]


@dataclass
class ClosureResult:
    """The outcome of a closure computation."""

    store: FactStore
    base_count: int
    derived_count: int
    iterations: int
    rule_firings: Dict[str, int] = field(default_factory=dict)
    #: rule name -> cumulative seconds spent joining that rule's body
    #: (populated only while telemetry is enabled; see
    #: :mod:`repro.obs`).  The reserved ``"(apply)"`` entry holds the
    #: round-end store-update time, so the entries together partition
    #: the fixpoint loop's total time (the ``engine.closure_seconds``
    #: gauge).
    rule_times: Dict[str, float] = field(default_factory=dict)
    #: fact -> the first justification found (present when the engine
    #: ran with ``trace=True``).
    provenance: Optional[Dict[Fact, Justification]] = None

    @property
    def total(self) -> int:
        return len(self.store)


def _checkable(conditions: Sequence[Condition],
               bound: Set[Variable]) -> List[int]:
    """Indices of the conditions whose variables are all bound.

    Indices — not the conditions themselves — so that a rule repeating
    one condition object (or two conditions comparing equal) keeps every
    copy: pruning "remaining minus ready" by equality would drop all
    copies of a duplicated condition the moment one became checkable.
    """
    return [i for i, c in enumerate(conditions) if c.variables() <= bound]


def _rule_solutions(rule: Rule, atom_sources: Sequence[FactStore],
                    context: RuleContext) -> Iterator[Binding]:
    """Join the rule body left to right, atom ``i`` matched against
    ``atom_sources[i]``; prune with conditions as soon as their
    variables are bound."""
    pending = list(rule.conditions)

    def extend(index: int, binding: Binding,
               remaining: List[Condition]) -> Iterator[Binding]:
        if index == len(rule.body):
            if all(c.holds(binding, context) for c in remaining):
                yield binding
            return
        atom = rule.body[index]
        for extended in atom_sources[index].solutions(atom, binding):
            bound = set(extended)
            ready = _checkable(remaining, bound)
            if all(remaining[i].holds(extended, context) for i in ready):
                ready_set = set(ready)
                still_pending = [c for i, c in enumerate(remaining)
                                 if i not in ready_set]
                yield from extend(index + 1, extended, still_pending)

    yield from extend(0, {}, pending)


def _fire(rule: Rule, atom_sources: Sequence[FactStore],
          context: RuleContext) -> Iterator[Tuple[Fact, Binding]]:
    """All (head fact, binding) pairs derivable from one body-join
    configuration."""
    for binding in _rule_solutions(rule, atom_sources, context):
        for head_atom in rule.head:
            yield head_atom.substitute(binding).to_fact(), binding


def _premises(rule: Rule, binding: Binding) -> Tuple[Fact, ...]:
    """The body instantiation that licensed a firing."""
    return tuple(atom.substitute(binding).to_fact() for atom in rule.body)


def naive_closure(base: Iterable[Fact], rules: Sequence[Rule],
                  context: RuleContext,
                  max_iterations: Optional[int] = None,
                  trace: bool = False) -> ClosureResult:
    """Fixpoint by full re-evaluation each round (baseline engine)."""
    observing = _obs.ENABLED
    closure_span = (_obs.TELEMETRY.span("closure.naive", rules=len(rules))
                    if observing else _obs.NULL_SPAN)
    with closure_span as span:
        store = seed_store(base)
        base_count = len(store)
        firings: Dict[str, int] = {rule.name: 0 for rule in rules}
        rule_times: Dict[str, float] = {}
        provenance: Optional[Dict[Fact, Justification]] = {} if trace else None
        iterations = 0
        changed = True
        loop_started = time.perf_counter()
        while changed:
            if max_iterations is not None and iterations >= max_iterations:
                break
            changed = False
            iterations += 1
            round_span = (_obs.TELEMETRY.span("closure.round",
                                           engine="naive", round=iterations)
                          if observing else _obs.NULL_SPAN)
            with round_span as rspan:
                fresh: List[Fact] = []
                for rule in rules:
                    if _deadline.ACTIVE:
                        _deadline.check()
                    sources = [store] * len(rule.body)
                    if observing:
                        rule_started = time.perf_counter()
                    for fact, binding in _fire(rule, sources, context):
                        if fact not in store:
                            fresh.append(fact)
                            firings[rule.name] += 1
                            if provenance is not None \
                                    and fact not in provenance:
                                provenance[fact] = Justification(
                                    rule.name, _premises(rule, binding))
                    if observing:
                        rule_times[rule.name] = (
                            rule_times.get(rule.name, 0.0)
                            + time.perf_counter() - rule_started)
                if observing:
                    apply_started = time.perf_counter()
                for fact in fresh:
                    if store.add(fact):
                        changed = True
                if observing:
                    rule_times[APPLY] = (rule_times.get(APPLY, 0.0)
                                         + time.perf_counter() - apply_started)
                rspan.set(fresh=len(fresh))
        if observing:
            _obs.TELEMETRY.count("engine.rounds", iterations)
            _obs.TELEMETRY.gauge("engine.closure_seconds",
                              time.perf_counter() - loop_started)
            span.set(iterations=iterations,
                     derived=len(store) - base_count)
        return ClosureResult(store=store, base_count=base_count,
                             derived_count=len(store) - base_count,
                             iterations=iterations, rule_firings=firings,
                             rule_times=rule_times, provenance=provenance)


def semi_naive_closure(base: Iterable[Fact], rules: Sequence[Rule],
                       context: RuleContext,
                       max_iterations: Optional[int] = None,
                       trace: bool = False) -> ClosureResult:
    """Fixpoint by delta-driven evaluation (the interpreted reference
    of :func:`.dispatch.dispatched_closure`).

    Each round, every rule body is evaluated once per atom position,
    with that *pivot* atom restricted to the facts derived in the
    previous round and the remaining atoms matched against the full
    store.  A derivation involving at least one new fact is therefore
    found exactly through its new atom(s); derivations involving only
    old facts were found in earlier rounds.
    """
    observing = _obs.ENABLED
    closure_span = (_obs.TELEMETRY.span("closure.semi_naive",
                                        rules=len(rules))
                    if observing else _obs.NULL_SPAN)
    with closure_span as span:
        store = seed_store(base)
        base_count = len(store)
        firings: Dict[str, int] = {rule.name: 0 for rule in rules}
        rule_times: Dict[str, float] = {}
        provenance: Optional[Dict[Fact, Justification]] = {} if trace else None
        pivoted = _pivoted_rules(rules)
        loop_started = time.perf_counter()
        iterations = _semi_naive_rounds(store, store.copy(), pivoted,
                                        context, firings, max_iterations,
                                        provenance, rule_times)
        if observing:
            _obs.TELEMETRY.gauge("engine.closure_seconds",
                              time.perf_counter() - loop_started)
            span.set(iterations=iterations,
                     derived=len(store) - base_count)
        return ClosureResult(store=store, base_count=base_count,
                             derived_count=len(store) - base_count,
                             iterations=iterations, rule_firings=firings,
                             rule_times=rule_times, provenance=provenance)


def _pivoted_rules(rules: Sequence[Rule]) -> List[Tuple[Rule, Rule]]:
    """Per rule and pivot position, the body reordered so the pivot
    atom joins first: the delta is the small side, so the join starts
    from it instead of scanning the full store."""
    pivoted: List[Tuple[Rule, Rule]] = []
    for rule in rules:
        for pivot in range(len(rule.body)):
            body = (rule.body[pivot],) + (
                rule.body[:pivot] + rule.body[pivot + 1:])
            reordered = Rule(
                name=rule.name, body=body, head=rule.head,
                conditions=rule.conditions,
                description=rule.description,
                is_constraint=rule.is_constraint)
            pivoted.append((rule, reordered))
    return pivoted


def _semi_naive_rounds(store: FactStore, delta: FactStore,
                       pivoted: Sequence[Tuple[Rule, Rule]],
                       context: RuleContext,
                       firings: Dict[str, int],
                       max_iterations: Optional[int] = None,
                       provenance: Optional[Dict[Fact, Justification]]
                       = None,
                       rule_times: Optional[Dict[str, float]]
                       = None) -> int:
    """Run delta rounds until quiescence, mutating ``store`` in place.

    ``delta`` holds the facts not yet joined against the rest of the
    store (they must already be *in* the store); ``pivoted`` is
    :func:`_pivoted_rules` of the rules to fire.  Returns the number of
    rounds executed.  With telemetry enabled, cumulative per-rule join
    seconds accumulate into ``rule_times`` and each round emits a
    ``closure.round`` span carrying its delta-in/fresh-out sizes.
    """
    iterations = 0
    observing = _obs.ENABLED and rule_times is not None
    while delta:
        if max_iterations is not None and iterations >= max_iterations:
            break
        iterations += 1
        round_span = (_obs.TELEMETRY.span("closure.round", **{
                          "engine": "semi-naive", "round": iterations,
                          "delta_in": len(delta)})
                      if observing else _obs.NULL_SPAN)
        with round_span as rspan:
            fresh: Set[Fact] = set()
            for rule, reordered in pivoted:
                # Deadline checkpoint (see repro.core.deadline): a
                # cancelled full closure is simply not cached.
                if _deadline.ACTIVE:
                    _deadline.check()
                arity = len(reordered.body)
                sources: List[FactStore] = [delta] + [store] * (arity - 1)
                if observing:
                    rule_started = time.perf_counter()
                for fact, binding in _fire(reordered, sources, context):
                    if fact not in store and fact not in fresh:
                        fresh.add(fact)
                        firings[rule.name] += 1
                        if provenance is not None and fact not in provenance:
                            # Premises in the original body order, not the
                            # pivot order.
                            provenance[fact] = Justification(
                                rule.name, _premises(rule, binding))
                if observing:
                    rule_times[rule.name] = (
                        rule_times.get(rule.name, 0.0)
                        + time.perf_counter() - rule_started)
            if observing:
                apply_started = time.perf_counter()
            delta = FactStore()
            for fact in fresh:
                if store.add(fact):
                    delta.add(fact)
            if observing:
                rule_times[APPLY] = (rule_times.get(APPLY, 0.0)
                                     + time.perf_counter() - apply_started)
            rspan.set(fresh_out=len(delta))
    if observing:
        _obs.TELEMETRY.count("engine.rounds", iterations)
    return iterations


def extend_closure(result: ClosureResult, new_facts: Iterable[Fact],
                   rules: Sequence[Rule], context: RuleContext,
                   compiled=None) -> ClosureResult:
    """Incrementally maintain a closure under fact *insertion*.

    ``new_facts`` are facts the caller just stored in the base heap.
    Semi-naive evaluation restarts exactly where it stopped: the new
    facts become the delta, and rounds run until quiescence.  The
    result's store is extended **in place** (so live views over it stay
    valid); statistics are updated to cover the extension — each new
    fact is one more base fact, and one fewer derived fact when the
    closure already held it.

    The rounds are the closure's own
    (:func:`~repro.rules.dispatch.run_rounds` over the whole rule set
    behind one dispatch index), ideal here, where deltas are tiny and
    most rules stay quiescent.  ``compiled`` is the
    :class:`~repro.rules.dispatch.CompiledRuleSet` of ``rules``
    (:meth:`RuleRegistry.compiled` caches one); compiled here when not
    given.

    Only insertions can be maintained this way — a deletion may
    invalidate derivations and goes through Delete/Rederive
    (:func:`~repro.rules.deletion.delete_with_rederivation`).
    """
    from .dispatch import RoundDelta, compile_ruleset, run_rounds

    new_facts = list(new_facts)
    added = [fact for fact in new_facts if result.store.add(fact)]
    result.base_count += len(new_facts)
    if added:
        if compiled is None:
            compiled = compile_ruleset(rules)
        delta = RoundDelta(compiled.delta_indexes, added)
        extend_span = (_obs.TELEMETRY.span("closure.extend",
                                        new_facts=len(delta))
                       if _obs.ENABLED else _obs.NULL_SPAN)
        with extend_span:
            result.iterations += run_rounds(
                result.store, delta, compiled, context,
                result.rule_firings, provenance=result.provenance,
                rule_times=result.rule_times)
    result.derived_count = len(result.store) - result.base_count
    return result
