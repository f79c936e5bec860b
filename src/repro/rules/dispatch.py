"""The rule engine: compiled joins and relationship-indexed rule
dispatch, in id space.

This is the one rule engine :class:`~repro.db.Database` and ``serve/``
run: the full closure (:func:`dispatched_closure`), insertion
maintenance (:func:`extend_closure`) and all three joining
phases of Delete/Rederive (:mod:`.deletion`) join through one
:class:`CompiledRuleSet`, on one slot machine whose slots hold interned
ids.

The paper leaves "suitable storage strategies [and] performance" open
(§6.2).  The interpreted semi-naive reference (:mod:`.engine`) is
correct but does far more work per round than the rule set requires:
every pivoted rule body is re-joined through every delta, via generic
template matching that allocates a binding dict per candidate.  The standard rules (§3) have
*ground* relationship positions in almost every body atom, which makes
two classic deductive-database techniques apply directly:

1. **Compiled joins** — each pivoted rule body is compiled once into a
   slot program: variables become integer slots, atoms become indexed
   lookups with precomputed fill/check positions, and conditions are
   compiled to closures attached to the earliest join level at which
   their variables are bound.  No ``Binding`` dicts, no per-candidate
   frozensets, no re-derived condition schedules.  A call joins with
   one cursor per level, depth first (no generator per candidate).
   Slots bind ids, not names: a body's constants are encoded once per
   join (:class:`JoinContext`), ``Distinct`` is an integer comparison,
   ``IndividualRelationship`` / ``NotSpecial`` on a variable decode
   each distinct id once per join and keep its verdict, only an
   unknown :class:`Condition` decodes its binding, and a head is an
   id triple.  A **semi-join on the pivot** drops, before any probe,
   the candidates whose value at the position the next level's key
   binds is not among the values the store's matches of that level's
   constants take there — when the store has fewer such matches than
   the pivot has candidates (:meth:`CompiledRule._semijoin_shape`; the
   ``dispatch.pruned`` counter).

2. **Relationship-indexed dispatch** — a dispatch index maps each
   ground pivot relationship (plus a wildcard bucket) to the compiled
   rule bodies whose pivot atom can match it.  A semi-naive round then
   fires only the rules reachable from the relationships actually
   present in the delta; quiescent rules are skipped outright (the
   ``dispatch.skipped_rules`` counter).

The closure, an insertion and a removal's propagation all run the
same :func:`run_rounds` over the whole rule set, joining against an
:class:`~repro.core.interned.IdProbe` (a store's rows as id triples)
with each round's delta an :class:`~repro.core.interned.IdDelta`.  A
closure grows its derived facts as ids beside the base's generation
and ends in one generation built from ids; maintenance adds each
round's facts to the closure store.  Both layers preserve the
semantics of :func:`.engine.semi_naive_closure` for any rule set: the
same closure contents, round structure, per-rule firing totals and
justifications (see :func:`run_rounds` for which one a fact gets).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core import deadline as _deadline
from ..core.entities import is_special_relationship
from ..core.facts import Fact, Template, Variable
from ..core.interned import IdDelta, IdProbe, InternedFactStore
from ..core.store import FactStore
from ..obs import telemetry as _obs
from .rule import (
    ANY_RELATIONSHIP,
    NONSPECIAL_RELATIONSHIP,
    Condition,
    Distinct,
    IndividualRelationship,
    NotSpecial,
    RelationshipSpec,
    Rule,
    RuleContext,
)

# ----------------------------------------------------------------------
# Closure results
# ----------------------------------------------------------------------
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

    def statistics(self) -> dict:
        """Everything but the store and the provenance, copied: what a
        replica is sent beside the facts (:mod:`repro.serve.replica`)."""
        return {
            "base_count": self.base_count,
            "derived_count": self.derived_count,
            "iterations": self.iterations,
            "rule_firings": dict(self.rule_firings),
            "rule_times": dict(self.rule_times),
        }



# ----------------------------------------------------------------------
# Rule compilation
# ----------------------------------------------------------------------
#: Outcome markers for compile-time-decidable conditions.
_DROP = object()  # condition always holds — drop it
_DEAD = object()  # condition never holds — the rule can never fire


class JoinContext:
    """What one closure or maintenance call joins with: the rule
    context (``rules``), the codec of the store's ids (an
    :class:`~repro.core.interned.IdProbe`'s), each compiled body's
    frame of encoded constants, and per id the verdict of each guard
    kind, ``IndividualRelationship`` (``individual``) and
    ``NotSpecial`` (``ordinary``)."""

    __slots__ = ("rules", "codec", "fact", "ids", "individual", "ordinary",
                 "_frames")

    def __init__(self, rules: RuleContext, probe: IdProbe):
        self.rules, self.codec = rules, probe.codec
        self.fact, self.ids = probe.fact, probe.ids
        self.individual: Dict[int, bool] = {}
        self.ordinary: Dict[int, bool] = {}
        self._frames: Dict["CompiledRule", List[Optional[int]]] = {}

    def frame(self, cr: "CompiledRule") -> List[Optional[int]]:
        """``cr``'s slot frame: a slot per variable, then its constants'
        ids (shared; a join copies it)."""
        frame = self._frames.get(cr)
        if frame is None:
            frame = self._frames[cr] = [None] * cr.n_slots + list(
                map(self.codec.encode, cr.constants))
        return frame


def _key_getter(indexes: Sequence[int]) -> Callable:
    """A lookup key off a slot list: one id for one index, else a
    tuple (as :meth:`IdProbe.lookup <repro.core.interned.IdProbe.lookup>`
    takes it)."""
    return itemgetter(*indexes) if indexes else (lambda slots: ())


def _guard(slot: int, individual: bool) -> Callable:
    """``IndividualRelationship`` (``individual``) or ``NotSpecial`` on
    one slot: the id is decoded and decided once per join, its verdict
    kept in the join's memo for that guard kind."""
    def guard(slots, join):
        value = slots[slot]
        memo = join.individual if individual else join.ordinary
        held = memo.get(value)
        if held is None:
            name = join.codec.decode(value)
            held = memo[value] = (
                join.rules.classifier.is_individual(name) if individual
                else not is_special_relationship(name))
        return held
    return guard


def _compile_condition(condition: Condition, slot_of: Dict[Variable, int],
                       at: Callable[[Any], int]):
    """Compile one condition to ``fn(slots, join) -> bool``.

    Returns ``(fn, needed_slots, schedule_last)`` — or the markers
    :data:`_DROP` / :data:`_DEAD` when the outcome is decidable at
    compile time.  :class:`Distinct` compares two frame entries (a
    constant's is its id, ``at`` places it).  :class:`IndividualRelationship`
    and :class:`NotSpecial` on a variable read one slot and are pure:
    each becomes a guard (:func:`_guard`).  Unknown :class:`Condition`
    subclasses fall back to decoding a partial binding dict and calling
    ``holds`` on every candidate (same semantics as the interpreted
    engine, just slower).
    """
    variables = condition.variables()
    missing = [v for v in variables if v not in slot_of]
    if not missing:
        if isinstance(condition, Distinct):
            left, right = condition.left, condition.right
            if not isinstance(left, Variable) \
                    and not isinstance(right, Variable):
                return _DROP if left != right else _DEAD
            fn = lambda slots, join, _i=at(left), _j=at(right): \
                slots[_i] != slots[_j]
            return fn, frozenset(slot_of[v] for v in variables), False
        if isinstance(condition, (IndividualRelationship, NotSpecial)):
            component = condition.component
            individual = isinstance(condition, IndividualRelationship)
            if isinstance(component, Variable):
                slot = slot_of[component]
                return _guard(slot, individual), frozenset((slot,)), False
            if individual:
                fn = lambda slots, join, _v=component: \
                    join.rules.classifier.is_individual(_v)
                return fn, frozenset(), False
            return (_DROP if not is_special_relationship(component)
                    else _DEAD)
    # Fallback: unknown condition type, or a condition over variables
    # the body never binds (the interpreted engine checks those once
    # per complete solution, with the variable absent from the binding).
    pairs = tuple((v, slot_of[v]) for v in variables if v in slot_of)

    def fallback(slots, join, _condition=condition, _pairs=pairs):
        decode = join.codec.decode
        return _condition.holds({v: decode(slots[i]) for v, i in _pairs},
                                join.rules)

    # Unknown-but-fully-bindable conditions still schedule at their
    # earliest ready level; only unbindable ones must wait for the end.
    return fallback, frozenset(i for _, i in pairs), bool(missing)


#: Per position, the index spec letter of a ground position.
_LETTERS = "srt"


def _fill_slices(fills: Sequence[Tuple[int, int]]) -> Tuple[slice, slice]:
    """``(slot_slice, fact_slice)`` with ``slots[slot_slice] =
    fact[fact_slice]`` doing a level's fills in one step.

    Slots are numbered by first appearance, so the variables a level
    fills have consecutive slots in position order, and any increasing
    subset of the three positions is a slice.
    """
    if not fills:
        return slice(0, 0), slice(0, 0)
    positions = [position for position, _ in fills]
    first = fills[0][1]
    assert [slot for _, slot in fills] == list(
        range(first, first + len(fills)))
    step = positions[1] - positions[0] if len(positions) > 1 else 1
    return (slice(first, first + len(fills)),
            slice(positions[0], positions[-1] + 1, step))


class CompiledRule:
    """One pivoted rule body compiled to a slot program over ids.

    ``order`` reproduces the interpreted reference's evaluation order
    (rule-major, pivot-minor), so firing attribution and provenance
    stay identical.

    ``levels`` holds one ``(spec, key_of, fill, take, checks,
    conditions)`` tuple per body atom, pivot first: ``spec`` names the
    positions the level's lookup binds and ``key_of(slots)`` is its key
    there, ``slots[fill] = fact[take]`` binds what the level fills,
    ``checks`` are ``(position, slot)`` pairs a repeated variable must
    match.  ``slots`` is a copy of the join's frame
    (:meth:`JoinContext.frame`): one slot per variable, then the ids of
    ``constants``.  ``pivot_index`` is level 0's spec (``""`` for none,
    ``"r"``, ``"sr"``, …).  ``heads`` and ``premise_specs`` take an id
    triple off the slots per head and per body atom (original order).
    ``semijoin`` is ``None`` or the shape described at
    :meth:`_semijoin_shape`.
    """

    __slots__ = ("rule", "pivot", "order", "n_slots", "constants", "levels",
                 "heads", "premise_specs", "pivot_spec", "pivot_index",
                 "semijoin", "dead")

    def __init__(self, rule: Rule, pivot: int, order: int):
        self.rule = rule
        self.pivot = pivot
        self.order = order
        self.dead = False

        body = (rule.body[pivot],) + (
            rule.body[:pivot] + rule.body[pivot + 1:])

        # Assign slots by first appearance in the pivoted body.
        slot_of: Dict[Variable, int] = {}
        for atom in body:
            for component in atom:
                if isinstance(component, Variable) \
                        and component not in slot_of:
                    slot_of[component] = len(slot_of)
        self.n_slots = len(slot_of)
        self.constants: List[str] = []
        constant_at: Dict[str, int] = {}

        def at(component) -> int:
            """The frame index of a variable's slot or a constant."""
            if isinstance(component, Variable):
                return slot_of[component]
            if component not in constant_at:
                constant_at[component] = self.n_slots + len(self.constants)
                self.constants.append(component)
            return constant_at[component]

        # Build levels, tracking which slots are bound after each.
        levels: List[list] = []
        level_parts: List[List[Tuple[str, Any]]] = []
        pivot_fills: List[Tuple[int, int]] = []
        bound: Set[int] = set()
        bound_after: List[Set[int]] = []
        for atom in body:
            parts: List[Tuple[str, Any]] = []
            key: List[int] = []
            fills: List[Tuple[int, int]] = []
            checks: List[Tuple[int, int]] = []
            filled_here: Set[int] = set()
            for position, component in enumerate(atom):
                if not isinstance(component, Variable):
                    parts.append(("c", component))
                    key.append(at(component))
                    continue
                slot = slot_of[component]
                if slot in bound:
                    parts.append(("b", slot))
                    key.append(slot)
                    continue
                parts.append(("f", None))
                if slot in filled_here:
                    checks.append((position, slot))
                else:
                    fills.append((position, slot))
                    filled_here.add(slot)
            bound |= filled_here
            bound_after.append(set(bound))
            level_parts.append(parts)
            if not levels:
                pivot_fills = fills
            spec = "".join(letter for letter, (tag, _)
                           in zip(_LETTERS, parts) if tag != "f")
            levels.append([spec, _key_getter(key), *_fill_slices(fills),
                           tuple(checks), ()])

        # Attach each condition to the earliest level at which its
        # variables are bound (the interpreted engine's eager pruning).
        last = len(levels) - 1
        scheduled: Dict[int, List[Callable]] = {}
        for condition in rule.conditions:
            compiled = _compile_condition(condition, slot_of, at)
            if compiled is _DROP:
                continue
            if compiled is _DEAD:
                self.dead = True
                continue
            fn, needed, schedule_last = compiled
            level_index = last
            if not schedule_last:
                for i, bound_slots in enumerate(bound_after):
                    if needed <= bound_slots:
                        level_index = i
                        break
            scheduled.setdefault(level_index, []).append(fn)
        for level_index, fns in scheduled.items():
            levels[level_index][5] = tuple(fns)
        self.levels = tuple(tuple(level) for level in levels)

        self.pivot_index = self.levels[0][0]
        self.semijoin = (self._semijoin_shape(pivot_fills, level_parts[1],
                                              at)
                         if len(levels) > 1 else None)
        self.heads: Tuple[Callable, ...] = tuple(
            itemgetter(*map(at, atom)) for atom in rule.head)
        # Premises in the original body order (for provenance).
        self.premise_specs: Tuple[Callable, ...] = tuple(
            itemgetter(*map(at, atom)) for atom in rule.body)
        self.pivot_spec: RelationshipSpec = _pivot_spec(body[0],
                                                        rule.conditions)

    @staticmethod
    def _semijoin_shape(pivot_fills: Sequence[Tuple[int, int]],
                        parts: Sequence[Tuple[str, Any]],
                        at: Callable[[Any], int]):
        """The semi-join on the pivot, when level 1's key has exactly
        one bound position plus at least one constant.

        That position's slot was filled at level 0, from
        ``pivot_position`` of the pivot fact.  A pivot candidate can
        only join when its value there is among the values the bound
        position takes in the store's matches of level 1's constants
        alone (``spec``, ``key_of``).  Returns ``(pivot_position,
        values_of, spec, key_of)`` — ``values_of`` reads the bound
        position of a match — or ``None``.
        """
        bound = [(position, value) for position, (tag, value)
                 in enumerate(parts) if tag == "b"]
        if len(bound) != 1 or not any(tag == "c" for tag, _ in parts):
            return None
        position, slot = bound[0]
        pivot_position = next(p for p, s in pivot_fills if s == slot)
        constants = [(letter, value) for letter, (tag, value)
                     in zip(_LETTERS, parts) if tag == "c"]
        return (pivot_position, itemgetter(position),
                "".join(letter for letter, _ in constants),
                _key_getter([at(value) for _, value in constants]))

    def candidates(self, delta, join: JoinContext):
        """The pivot's candidates in ``delta``: its facts at the pivot
        atom's constants."""
        return delta.lookup(self.pivot_index,
                            self.levels[0][1](join.frame(self)))

    def solutions(self, candidates, store: IdProbe,
                  join: JoinContext) -> Iterator[List[Optional[int]]]:
        """All slot assignments satisfying the body, pivot atom matched
        against ``candidates`` (id triples) and the rest against
        ``store``.

        A round passes :meth:`candidates`; the rederive step of
        :mod:`.deletion` passes the store's facts at the pivot's ground
        positions under a head unifier.  One cursor per level, walked
        depth first: solutions come in the order a nested loop over the
        levels gives them, for a body of any length.  The semi-join
        (:meth:`_semijoin_shape`) filters the pivot's candidates first,
        keeping their order, when the store's count of level 1's
        constant pattern is below the candidate count.  Yields one
        mutable slot list, reused across solutions: callers must
        consume (or copy) each yield before advancing.
        """
        slots: List[Optional[int]] = list(join.frame(self))
        semijoin = self.semijoin
        # One candidate: a filter cannot cost less than its probe.
        if semijoin is not None and len(candidates) > 1:
            count = len(candidates)
            pivot_position, values_of, spec, key_of = semijoin
            key = key_of(slots)
            if store.count(spec, key) < count:
                values = set(map(values_of, store.lookup(spec, key)))
                candidates = [fact for fact in candidates
                              if fact[pivot_position] in values]
                if _obs.ENABLED and count > len(candidates):
                    _obs.TELEMETRY.count("dispatch.pruned",
                                         count - len(candidates))
        levels = self.levels
        last = len(levels) - 1
        cursors: List[Any] = []
        # Per level, its last key and matches: candidates taken from a
        # sorted run often repeat the next level's key.
        keys: List[Any] = [None] * len(levels)
        matches: List[Any] = [None] * len(levels)
        depth = 0
        _, _, fill, take, checks, conditions = levels[0]
        cursor = iter(candidates)
        while True:
            for fact in cursor:
                slots[fill] = fact[take]
                if checks:
                    matched = True
                    for position, slot in checks:
                        if fact[position] != slots[slot]:
                            matched = False
                            break
                    if not matched:
                        continue
                if conditions:
                    satisfied = True
                    for condition in conditions:
                        if not condition(slots, join):
                            satisfied = False
                            break
                    if not satisfied:
                        continue
                if depth == last:
                    yield slots
                    continue
                # Descend: park this level's cursor, open the next.
                cursors.append(cursor)
                depth += 1
                spec, key_of, fill, take, checks, conditions = levels[depth]
                key = key_of(slots)
                if key != keys[depth] or matches[depth] is None:
                    keys[depth] = key
                    matches[depth] = store.lookup(spec, key)
                cursor = iter(matches[depth])
                break
            else:
                # This level is exhausted: resume the one above.
                if not depth:
                    return
                depth -= 1
                cursor = cursors.pop()
                _, _, fill, take, checks, conditions = levels[depth]

    def premises(self, slots: List[Optional[int]],
                 join: JoinContext) -> Tuple[Fact, ...]:
        """The body instantiation (original atom order) for a solution,
        decoded."""
        return tuple(join.fact(spec(slots)) for spec in self.premise_specs)


def _pivot_spec(pivot_atom: Template,
                conditions: Sequence[Condition]) -> RelationshipSpec:
    from .rule import atom_relationship_spec
    return atom_relationship_spec(pivot_atom, conditions)


# ----------------------------------------------------------------------
# The compiled rule set and its dispatch index
# ----------------------------------------------------------------------
#: The index specs an :class:`~repro.core.interned.IdDelta` builds, in
#: order (``""`` and ``"srt"`` need none: the fact set answers both).
_BUCKET_SPECS = ("s", "r", "t", "sr", "st", "rt")


class CompiledRuleSet:
    """Everything the dispatched engine precomputes for a rule set:
    compiled pivoted bodies, the dispatch index, and the head table
    Delete/Rederive's one-step check walks.

    ``by_relationship`` maps each ground pivot relationship to the
    compiled bodies pivoting on it; ``nonspecial`` and ``wildcard`` are
    the buckets for variable pivot relationships (with and without a
    ``NotSpecial`` guard).  :meth:`select` returns, in evaluation
    order, exactly the bodies whose pivot can match some relationship
    in the delta — everything else is skipped for the round.
    """

    def __init__(self, rules: Sequence[Rule]):
        self.rules: List[Rule] = list(rules)
        compiled: List[CompiledRule] = []
        order = 0
        by_name: Dict[str, List[CompiledRule]] = {}
        for rule in self.rules:
            for pivot in range(len(rule.body)):
                cr = CompiledRule(rule, pivot, order)
                order += 1
                if cr.dead:
                    continue
                compiled.append(cr)
                by_name.setdefault(rule.name, []).append(cr)
        #: The live pivoted bodies, in evaluation order.
        self.compiled: Tuple[CompiledRule, ...] = tuple(compiled)
        #: Per head of a rule that can fire, in rule order: ``(spec,
        #: head, index, bodies)`` — the relationship spec it produces,
        #: the head template, its index in ``rule.head`` (and in each
        #: body's ``heads``), and the rule's compiled pivoted bodies.
        self.heads: Tuple[Tuple[RelationshipSpec, Template, int,
                                Tuple[CompiledRule, ...]], ...] = tuple(
            (spec, head, index, tuple(by_name[rule.name]))
            for rule in self.rules if rule.name in by_name
            for index, (head, spec) in enumerate(
                zip(rule.head, rule.produced_relationship_specs())))
        #: The index specs a round's delta builds (the pivots read
        #: them), and those the facts a closure derives build (the
        #: later levels and the semi-joins read them).
        pivot_specs = {cr.pivot_index for cr in compiled}
        store_specs = {level[0] for cr in compiled
                       for level in cr.levels[1:]}
        store_specs.update(cr.semijoin[2] for cr in compiled if cr.semijoin)
        self.delta_indexes: Tuple[str, ...] = tuple(
            spec for spec in _BUCKET_SPECS if spec in pivot_specs)
        self.store_indexes: Tuple[str, ...] = tuple(
            spec for spec in _BUCKET_SPECS if spec in store_specs)
        by_relationship: Dict[str, List[CompiledRule]] = {}
        nonspecial: List[CompiledRule] = []
        wildcard: List[CompiledRule] = []
        for cr in compiled:
            spec = cr.pivot_spec
            if spec is ANY_RELATIONSHIP:
                wildcard.append(cr)
            elif spec is NONSPECIAL_RELATIONSHIP:
                nonspecial.append(cr)
            else:
                by_relationship.setdefault(spec, []).append(cr)
        self.by_relationship = {
            rel: tuple(bodies) for rel, bodies in by_relationship.items()}
        self.nonspecial = tuple(nonspecial)
        self.wildcard = tuple(wildcard)

    def select(self, delta_relationships: Iterable[str]
               ) -> List[CompiledRule]:
        """The compiled bodies reachable from a delta's relationships,
        in evaluation order."""
        chosen: Dict[int, CompiledRule] = {}
        has_nonspecial = False
        for relationship in delta_relationships:
            if not is_special_relationship(relationship):
                has_nonspecial = True
            for cr in self.by_relationship.get(relationship, ()):
                chosen[cr.order] = cr
        if has_nonspecial:
            for cr in self.nonspecial:
                chosen[cr.order] = cr
        for cr in self.wildcard:
            chosen[cr.order] = cr
        return [chosen[order] for order in sorted(chosen)]


def compile_ruleset(rules: Sequence[Rule]) -> CompiledRuleSet:
    """Compile a rule sequence for the dispatched engine."""
    return CompiledRuleSet(rules)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def run_rounds(store: IdProbe, delta, compiled: CompiledRuleSet,
               join: JoinContext, firings: Dict[str, int],
               max_iterations: Optional[int] = None,
               provenance: Optional[Dict[Fact, Any]] = None,
               rule_times: Optional[Dict[str, float]] = None,
               added: Optional[List[Fact]] = None) -> int:
    """Dispatched semi-naive rounds until quiescence, in id space.

    The compiled twin of :func:`.engine._semi_naive_rounds`: ``store``
    grows in place (:meth:`IdProbe.add
    <repro.core.interned.IdProbe.add>`), ``delta`` holds the facts not
    yet joined against the rest of the store (already *in* it) — an
    :class:`~repro.core.interned.IdDelta` on ``compiled.delta_indexes``,
    or the store itself for a closure's first round — and ``join`` is
    the :class:`JoinContext` of the store's ids.  Returns the number of
    rounds executed.  Like ``firings``, ``provenance`` and
    ``rule_times``, ``added`` is filled in when given: the facts the
    rounds added to the store, decoded (insertion maintenance reports
    them; a full closure does not ask).

    A fact's justification does not depend on any iteration order: of
    the compiled bodies that derive it in the round that first derives
    it, the first in evaluation order, with the least of its premise
    tuples that derive the fact (the reference records the same).
    """
    iterations = 0
    observing = _obs.ENABLED and rule_times is not None
    total = len(compiled.compiled)
    decode = join.codec.decode
    while delta:
        if max_iterations is not None and iterations >= max_iterations:
            break
        iterations += 1
        round_span = (_obs.TELEMETRY.span("closure.round", **{
                          "engine": "dispatched", "round": iterations,
                          "delta_in": len(delta)})
                      if observing else _obs.NULL_SPAN)
        with round_span as rspan:
            active = compiled.select(map(decode, delta.relationships()))
            if observing:
                skipped = total - len(active)
                if skipped:
                    _obs.TELEMETRY.count("dispatch.skipped_rules", skipped)
                _obs.TELEMETRY.count("dispatch.fired_rules", len(active))
            fresh: Set[Tuple[int, int, int]] = set()
            # Traced: each fresh fact's body and least premises so far.
            first: Optional[Dict[Tuple[int, int, int], Tuple[
                CompiledRule, Tuple[Fact, ...]]]] = (
                {} if provenance is not None else None)
            for cr in active:
                # Deadline checkpoint: once per (rule, round) — a
                # cancelled closure leaves no shared state behind
                # (the store under construction is discarded).
                if _deadline.ACTIVE:
                    _deadline.check()
                rule_name = cr.rule.name
                heads = cr.heads
                if observing:
                    rule_started = time.perf_counter()
                for slots in cr.solutions(cr.candidates(delta, join),
                                          store, join):
                    for head in heads:
                        fact = head(slots)
                        if fact in fresh:
                            if first is not None and first[fact][0] is cr:
                                premises = cr.premises(slots, join)
                                if premises < first[fact][1]:
                                    first[fact] = (cr, premises)
                            continue
                        if fact in store:
                            continue
                        fresh.add(fact)
                        firings[rule_name] += 1
                        if first is not None:
                            first[fact] = (cr, cr.premises(slots, join))
                if observing:
                    rule_times[rule_name] = (
                        rule_times.get(rule_name, 0.0)
                        + time.perf_counter() - rule_started)
            if observing:
                apply_started = time.perf_counter()
            delta = IdDelta(compiled.delta_indexes, fresh)
            for fact in fresh:
                store.add(fact)
            if added is not None:
                added.extend(map(join.fact, fresh))
            for fact, (cr, premises) in (first or {}).items():
                fact = join.fact(fact)
                if fact not in provenance:
                    provenance[fact] = Justification(cr.rule.name, premises)
            if observing:
                rule_times[APPLY] = (rule_times.get(APPLY, 0.0)
                                     + time.perf_counter() - apply_started)
            rspan.set(fresh_out=len(delta))
    return iterations


def dispatched_closure(base: Iterable[Fact], rules: Sequence[Rule],
                       context: RuleContext,
                       max_iterations: Optional[int] = None,
                       trace: bool = False,
                       compiled: Optional[CompiledRuleSet] = None):
    """Fixpoint by dispatched, compiled semi-naive rounds, grown in id
    space on the base's own generation.

    Drop-in equivalent of :func:`.engine.semi_naive_closure` (identical
    closure contents, rounds, firings and justifications) with both
    fast-path layers applied.  ``base`` is an interned store (any other
    iterable of facts is built into one first), probed through an
    :class:`~repro.core.interned.IdProbe`: its own runs are the first
    round's candidates, and what the rounds derive goes into one
    :class:`~repro.core.interned.IdDelta` indexed on the specs the
    compiled bodies read.  The result's store is the closure as one
    generation built from those ids (:meth:`InternedFactStore.consume
    <repro.core.interned.InternedFactStore.consume>`): the base's rows
    flagged ``STORED``, at its version.  ``compiled`` lets callers
    reuse a :class:`CompiledRuleSet` across closures — the
    :class:`~repro.rules.registry.RuleRegistry` caches one per enabled
    rule set.
    """
    rules = list(rules)
    if compiled is None or compiled.rules != rules:
        compiled = compile_ruleset(rules)
    if not isinstance(base, InternedFactStore):
        base = InternedFactStore.from_facts(base)
    observing = _obs.ENABLED
    closure_span = (_obs.TELEMETRY.span("closure.dispatched",
                                     rules=len(rules))
                    if observing else _obs.NULL_SPAN)
    with closure_span as span:
        store = IdProbe(base, IdDelta(compiled.store_indexes))
        join = JoinContext(context, store)
        base_count = len(base)
        firings: Dict[str, int] = {rule.name: 0 for rule in rules}
        rule_times: Dict[str, float] = {}
        provenance: Optional[Dict[Fact, Any]] = {} if trace else None
        loop_started = time.perf_counter()
        # No rule has joined against anything yet: the base is the
        # first delta.
        iterations = run_rounds(store, store, compiled, join, firings,
                                max_iterations, provenance, rule_times)
        derived = len(store.grown)
        if observing:
            _obs.TELEMETRY.count("engine.rounds", iterations)
            _obs.TELEMETRY.gauge("engine.closure_seconds",
                              time.perf_counter() - loop_started)
            span.set(iterations=iterations, derived=derived)
        closure = InternedFactStore.consume(base, store.grown, store.codec)
        return ClosureResult(store=closure, base_count=base_count,
                             derived_count=derived,
                             iterations=iterations, rule_firings=firings,
                             rule_times=rule_times, provenance=provenance)


def extend_closure(result: ClosureResult, new_facts: Iterable[Fact],
                   rules: Sequence[Rule], context: RuleContext,
                   compiled=None) -> List[Fact]:
    """Incrementally maintain a closure under fact *insertion*.

    ``new_facts`` are facts the caller just stored in the base heap.
    Semi-naive evaluation restarts exactly where it stopped: the new
    facts become the delta, and rounds run until quiescence.  The
    result's store is extended **in place** (so live views over it stay
    valid); statistics are updated to cover the extension — each new
    fact is one more base fact, and one fewer derived fact when the
    closure already held it.  Returns the facts the store gained — the
    closure's net change, which an insertion never shrinks — in
    insertion order: the new facts it did not hold yet, then what the
    rounds derived.

    The rounds are the closure's own (:func:`run_rounds` over the whole
    rule set behind one dispatch index, joining the store's ids through
    an :class:`~repro.core.interned.IdProbe`), ideal here, where deltas
    are tiny and most rules stay quiescent.  ``compiled`` is the
    :class:`CompiledRuleSet` of ``rules`` (:meth:`RuleRegistry.compiled`
    caches one); compiled here when not given.

    Only insertions can be maintained this way — a deletion may
    invalidate derivations and goes through Delete/Rederive
    (:func:`~repro.rules.deletion.delete_with_rederivation`).
    """
    new_facts = list(new_facts)
    added = [fact for fact in new_facts if result.store.add(fact)]
    result.base_count += len(new_facts)
    if added:
        if compiled is None:
            compiled = compile_ruleset(rules)
        store = IdProbe(result.store)
        join = JoinContext(context, store)
        delta = IdDelta(compiled.delta_indexes, map(join.ids, added))
        extend_span = (_obs.TELEMETRY.span("closure.extend",
                                        new_facts=len(delta))
                       if _obs.ENABLED else _obs.NULL_SPAN)
        with extend_span:
            result.iterations += run_rounds(
                store, delta, compiled, join, result.rule_firings,
                provenance=result.provenance,
                rule_times=result.rule_times, added=added)
    result.derived_count = len(result.store) - result.base_count
    return added
