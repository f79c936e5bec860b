"""The rule engine: compiled joins and relationship-indexed rule
dispatch.

This is the one rule engine :class:`~repro.db.Database` and ``serve/``
run: the full closure (:func:`dispatched_closure`), insertion
maintenance (:func:`extend_closure`) and all three joining
phases of Delete/Rederive (:mod:`.deletion`) join through one
:class:`CompiledRuleSet`.

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
   one cursor per level, depth first (no generator per candidate);
   ``IndividualRelationship`` / ``NotSpecial`` on a variable are
   decided once per distinct value and call, each guard with its own
   memo; and a **semi-join on the pivot** drops, before any probe, the
   candidates whose value at the position the next level's key binds is
   not among the values the store's matches of that level's constants
   take there — when the store has fewer such matches than the pivot
   has candidates (:meth:`CompiledRule._semijoin_shape`; the
   ``dispatch.pruned`` counter).  A round's delta (:class:`RoundDelta`)
   is a fact set plus only the bucket indexes the pivots read.

2. **Relationship-indexed dispatch** — a dispatch index maps each
   ground pivot relationship (plus a wildcard bucket) to the compiled
   rule bodies whose pivot atom can match it.  A semi-naive round then
   fires only the rules reachable from the relationships actually
   present in the delta; quiescent rules are skipped outright (the
   ``dispatch.skipped_rules`` counter).

The closure, an insertion and a removal's propagation all run the
same :func:`run_rounds` over the whole rule set.  Both layers preserve
the semantics of :func:`.engine.semi_naive_closure` bit for bit, for
any rule set: the same closure contents, round structure, per-rule
firing totals, and provenance (values and insertion order) — every
join walks its candidates in the order the reference's matching does.
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
from ..core.facts import Binding, Fact, Template, Variable
from ..core.store import FactStore, seed_store
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

_AtomSpec = Tuple[Tuple[bool, Any], Tuple[bool, Any], Tuple[bool, Any]]


def _atom_spec(atom: Template, slot_of: Dict[Variable, int]) -> _AtomSpec:
    """Per position: ``(True, entity)`` or ``(False, slot)``."""
    return tuple(
        (False, slot_of[component]) if isinstance(component, Variable)
        else (True, component)
        for component in atom
    )  # type: ignore[return-value]


def _materialize(spec: _AtomSpec, slots: List[Optional[str]]) -> Fact:
    """Instantiate an atom spec under a slot assignment."""
    (c0, v0), (c1, v1), (c2, v2) = spec
    return Fact(v0 if c0 else slots[v0],
                v1 if c1 else slots[v1],
                v2 if c2 else slots[v2])


def _guard(slot: int, memo_index: int, individual: bool) -> Callable:
    """``IndividualRelationship`` (``individual``) or ``NotSpecial`` on
    one slot, decided once per distinct value: the verdict is kept in
    ``memos[memo_index]``, a dict made on the guard's first use in one
    :meth:`CompiledRule.solutions` call."""
    def guard(slots, context, memos):
        value = slots[slot]
        memo = memos[memo_index]
        if memo is None:
            memo = memos[memo_index] = {}
        else:
            held = memo.get(value)
            if held is not None:
                return held
        held = memo[value] = (
            context.classifier.is_individual(value) if individual
            else not is_special_relationship(value))
        return held
    return guard


def _compile_condition(condition: Condition,
                       slot_of: Dict[Variable, int], memo_index: int):
    """Compile one condition to ``fn(slots, context, memos) -> bool``.

    Returns ``(fn, needed_slots, schedule_last, memoised)`` — or the
    markers :data:`_DROP` / :data:`_DEAD` when the outcome is decidable
    at compile time.  :class:`IndividualRelationship` and
    :class:`NotSpecial` on a variable read one slot and are pure, so
    each becomes a guard with memo number ``memo_index`` of its own
    (``memoised`` is then True).  :class:`Distinct` stays inline.
    Unknown :class:`Condition` subclasses fall back to rebuilding a
    partial binding dict and calling ``holds`` on every candidate
    (same semantics as the interpreted engine, just slower).
    """
    variables = condition.variables()
    missing = [v for v in variables if v not in slot_of]
    if not missing:
        if isinstance(condition, Distinct):
            left, right = condition.left, condition.right
            left_var = isinstance(left, Variable)
            right_var = isinstance(right, Variable)
            if left_var and right_var:
                i, j = slot_of[left], slot_of[right]
                fn = lambda slots, context, memos, _i=i, _j=j: \
                    slots[_i] != slots[_j]
            elif left_var:
                i = slot_of[left]
                fn = lambda slots, context, memos, _i=i, _v=right: \
                    slots[_i] != _v
            elif right_var:
                j = slot_of[right]
                fn = lambda slots, context, memos, _j=j, _v=left: \
                    _v != slots[_j]
            else:
                return _DROP if left != right else _DEAD
            needed = frozenset(slot_of[v] for v in variables)
            return fn, needed, False, False
        if isinstance(condition, (IndividualRelationship, NotSpecial)):
            component = condition.component
            individual = isinstance(condition, IndividualRelationship)
            if isinstance(component, Variable):
                slot = slot_of[component]
                return (_guard(slot, memo_index, individual),
                        frozenset((slot,)), False, True)
            if individual:
                fn = lambda slots, context, memos, _v=component: \
                    context.classifier.is_individual(_v)
                return fn, frozenset(), False, False
            return (_DROP if not is_special_relationship(component)
                    else _DEAD)
    # Fallback: unknown condition type, or a condition over variables
    # the body never binds (the interpreted engine checks those once
    # per complete solution, with the variable absent from the binding).
    pairs = tuple((v, slot_of[v]) for v in variables if v in slot_of)

    def fallback(slots, context, memos, _condition=condition, _pairs=pairs):
        binding: Binding = {v: slots[i] for v, i in _pairs}
        return _condition.holds(binding, context)

    needed = frozenset(slot_of[v] for v in variables if v in slot_of)
    # Unknown-but-fully-bindable conditions still schedule at their
    # earliest ready level; only unbindable ones must wait for the end.
    return fallback, needed, bool(missing), False


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
    """One pivoted rule body compiled to a slot program.

    ``order`` reproduces the interpreted reference's evaluation order
    (rule-major, pivot-minor), so firing attribution and provenance
    stay identical.

    ``levels`` holds one ``(key_of, fill, take, checks, conditions)``
    tuple per body atom, pivot first: ``key_of(slots)`` is the level's
    lookup key, ``slots[fill] = fact[take]`` binds what the level
    fills, ``checks`` are ``(position, slot)`` pairs a repeated variable
    must match.  ``slots`` is a copy of ``frame``: one slot per variable,
    then the key constants.  ``pivot_key`` is level 0's lookup key (the
    pivot atom's constants, ``None`` elsewhere) and ``pivot_index`` the
    index spec that key reads (``""`` for none, ``"r"``, ``"sr"``, …).
    ``semijoin`` is ``None`` or the shape described at
    :meth:`_semijoin_shape`.
    """

    __slots__ = ("rule", "pivot", "order", "n_slots", "frame", "levels",
                 "heads", "premise_specs", "pivot_spec", "pivot_key",
                 "pivot_index", "semijoin", "n_memos", "dead")

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

        # Build levels, tracking which slots are bound after each.  The
        # slot frame is the variables' slots, then every constant of a
        # level's key, then one ``None``: a level's lookup key is an
        # ``itemgetter`` over it (index -1 for a free position).
        frame: List[Optional[str]] = [None] * self.n_slots
        constant_at: Dict[str, int] = {}
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
                    if component not in constant_at:
                        constant_at[component] = len(frame)
                        frame.append(component)
                    key.append(constant_at[component])
                    continue
                slot = slot_of[component]
                if slot in bound:
                    parts.append(("b", slot))
                    key.append(slot)
                    continue
                parts.append(("f", None))
                key.append(-1)
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
            levels.append([itemgetter(*key), *_fill_slices(fills),
                           tuple(checks), ()])
        self.frame: Tuple[Optional[str], ...] = tuple(frame) + (None,)

        # Attach each condition to the earliest level at which its
        # variables are bound (the interpreted engine's eager pruning).
        last = len(levels) - 1
        scheduled: Dict[int, List[Callable]] = {}
        n_memos = 0
        for condition in rule.conditions:
            compiled = _compile_condition(condition, slot_of, n_memos)
            if compiled is _DROP:
                continue
            if compiled is _DEAD:
                self.dead = True
                continue
            fn, needed, schedule_last, memoised = compiled
            n_memos += memoised
            level_index = last
            if not schedule_last:
                for i, bound_slots in enumerate(bound_after):
                    if needed <= bound_slots:
                        level_index = i
                        break
            scheduled.setdefault(level_index, []).append(fn)
        for level_index, fns in scheduled.items():
            levels[level_index][4] = tuple(fns)
        self.levels = tuple(tuple(level) for level in levels)
        self.n_memos = n_memos

        self.pivot_key: Tuple[Optional[str], ...] = tuple(
            value if tag == "c" else None for tag, value in level_parts[0])
        self.pivot_index = "".join(
            letter for letter, value in zip(_LETTERS, self.pivot_key)
            if value is not None)
        self.semijoin = (self._semijoin_shape(pivot_fills, level_parts[1])
                         if len(levels) > 1 else None)

        self.heads: Tuple[_AtomSpec, ...] = tuple(
            _atom_spec(atom, slot_of) for atom in rule.head)
        # Premises in the original body order (for provenance).
        self.premise_specs: Tuple[_AtomSpec, ...] = tuple(
            _atom_spec(atom, slot_of) for atom in rule.body)
        self.pivot_spec: RelationshipSpec = _pivot_spec(body[0],
                                                        rule.conditions)

    @staticmethod
    def _semijoin_shape(pivot_fills: Sequence[Tuple[int, int]],
                        parts: Sequence[Tuple[str, Any]]):
        """The semi-join on the pivot, when level 1's key has exactly
        one bound position plus at least one constant.

        That position's slot was filled at level 0, from
        ``pivot_position`` of the pivot fact.  A pivot candidate can
        only join when its value there is among the values the bound
        position takes in the store's matches of level 1's constants
        alone (``key``, ``pattern``).  Returns ``(pivot_position,
        values_of, key, pattern)`` — ``values_of`` reads the bound
        position of a match — or ``None``.
        """
        bound = [(position, value) for position, (tag, value)
                 in enumerate(parts) if tag == "b"]
        if len(bound) != 1 or not any(tag == "c" for tag, _ in parts):
            return None
        position, slot = bound[0]
        pivot_position = next(p for p, s in pivot_fills if s == slot)
        key = tuple(value if tag == "c" else None for tag, value in parts)
        pattern = Template(*(
            value if tag == "c" else Variable(f"__semijoin{i}__")
            for i, (tag, value) in enumerate(parts)))
        return pivot_position, itemgetter(position), key, pattern

    def solutions(self, candidates: Iterable[Fact], store: FactStore,
                  context: RuleContext) -> Iterator[List[Optional[str]]]:
        """All slot assignments satisfying the body, pivot atom matched
        against ``candidates`` and the rest against ``store``.

        A round passes ``delta.lookup(*self.pivot_key)`` (a
        :class:`RoundDelta`'s bucket); the rederive step of
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
        semijoin = self.semijoin
        if semijoin is not None:
            try:
                count = len(candidates)
            except TypeError:
                # A lazy scan: an interned store's lookup (rederive).
                candidates = list(candidates)
                count = len(candidates)
            # One candidate: a filter cannot cost less than its probe.
            if count > 1 and store.count_estimate(semijoin[3]) < count:
                pivot_position, values_of, key, _ = semijoin
                values = set(map(values_of, store.lookup(*key)))
                candidates = [fact for fact in candidates
                              if fact[pivot_position] in values]
                if _obs.ENABLED and count > len(candidates):
                    _obs.TELEMETRY.count("dispatch.pruned",
                                         count - len(candidates))
        memos: List[Optional[dict]] = [None] * self.n_memos
        slots: List[Optional[str]] = list(self.frame)
        levels = self.levels
        last = len(levels) - 1
        cursors: List[Any] = []
        depth = 0
        _, fill, take, checks, conditions = levels[0]
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
                        if not condition(slots, context, memos):
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
                key_of, fill, take, checks, conditions = levels[depth]
                cursor = iter(store.lookup(*key_of(slots)))
                break
            else:
                # This level is exhausted: resume the one above.
                if not depth:
                    return
                depth -= 1
                cursor = cursors.pop()
                _, fill, take, checks, conditions = levels[depth]

    def premises(self, slots: List[Optional[str]]) -> Tuple[Fact, ...]:
        """The body instantiation (original atom order) for a solution."""
        return tuple(_materialize(spec, slots)
                     for spec in self.premise_specs)


def _pivot_spec(pivot_atom: Template,
                conditions: Sequence[Condition]) -> RelationshipSpec:
    from .rule import atom_relationship_spec
    return atom_relationship_spec(pivot_atom, conditions)


# ----------------------------------------------------------------------
# The compiled rule set and its dispatch index
# ----------------------------------------------------------------------
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
        #: The bucket indexes the pivot keys read — all a
        #: :class:`RoundDelta` builds (``""`` and ``"srt"`` need none:
        #: the fact set answers both).
        pivot_indexes = {cr.pivot_index for cr in compiled}
        self.delta_indexes: Tuple[str, ...] = tuple(
            spec for spec in _BUCKET_SPECS if spec in pivot_indexes)
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
# Round deltas
# ----------------------------------------------------------------------
#: The bucket index specs, in the order a :class:`FactStore` builds
#: its indexes.
_BUCKET_SPECS = ("s", "r", "t", "sr", "st", "rt")
#: Per bucket spec, a fact's key in it (as :class:`FactStore` keys it).
_KEY_OF = {spec: itemgetter(*(_LETTERS.index(letter) for letter in spec))
           for spec in _BUCKET_SPECS}


class RoundDelta:
    """The facts a round joins through its pivots: a fact set plus only
    the bucket indexes the pivot keys read (``indexes``, a
    :attr:`CompiledRuleSet.delta_indexes`; for the standard rules just
    ``"r"``).

    A derived fact is indexed once here instead of into a six-index
    :class:`FactStore`.  Buckets are built fact by fact in insertion
    order, as a store builds them, so a bucket iterates in the order the
    store's would — the order the interpreted reference joins in.
    """

    __slots__ = ("_facts", "_indexes", "_keyed")

    def __init__(self, indexes: Sequence[str], facts: Iterable[Fact] = ()):
        self._facts: Set[Fact] = set()
        self._indexes: Dict[str, Dict[Any, Set[Fact]]] = {}
        self._keyed: List[Tuple[Callable, Dict[Any, Set[Fact]]]] = []
        for spec in indexes:
            index = self._indexes[spec] = {}
            self._keyed.append((_KEY_OF[spec], index))
        for fact in facts:
            self.add(fact)

    @classmethod
    def of_store(cls, store: FactStore,
                 indexes: Sequence[str]) -> "RoundDelta":
        """The closure's first delta: every fact of a hash ``store``.

        The fact set and the named buckets are copied (``set(...)`` of
        each), never aliased — a ``set`` copy can iterate in another
        order than its source, and the reference engine iterates such a
        copy (``rules.engine._first_delta``).
        """
        delta = cls(indexes)
        delta._facts = set(store._facts)  # noqa: SLF001
        for spec, index in delta._indexes.items():
            index.update((key, set(bucket))
                         for key, bucket in store.index_for(spec).items()
                         if bucket)
        return delta

    def add(self, fact: Fact) -> None:
        self._facts.add(fact)
        for key_of, index in self._keyed:
            key = key_of(fact)
            bucket = index.get(key)
            if bucket is None:
                bucket = index[key] = set()
            bucket.add(fact)

    def __len__(self) -> int:
        return len(self._facts)

    def relationships(self) -> Iterable[str]:
        """The distinct relationships of the delta's facts."""
        by_r = self._indexes.get("r")
        if by_r is not None:
            return by_r.keys()
        return {fact[1] for fact in self._facts}

    def lookup(self, source: Optional[str] = None,
               relationship: Optional[str] = None,
               target: Optional[str] = None) -> Iterable[Fact]:
        """:meth:`FactStore.lookup` over the delta, for the index specs
        it was built with."""
        indexes = self._indexes
        if source is not None:
            if relationship is not None:
                if target is not None:
                    fact = Fact(source, relationship, target)
                    return (fact,) if fact in self._facts else ()
                return indexes["sr"].get((source, relationship), ())
            if target is not None:
                return indexes["st"].get((source, target), ())
            return indexes["s"].get(source, ())
        if relationship is not None:
            if target is not None:
                return indexes["rt"].get((relationship, target), ())
            return indexes["r"].get(relationship, ())
        if target is not None:
            return indexes["t"].get(target, ())
        return self._facts


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def run_rounds(store: FactStore, delta, compiled: CompiledRuleSet,
               context: RuleContext, firings: Dict[str, int],
               max_iterations: Optional[int] = None,
               provenance: Optional[Dict[Fact, Any]] = None,
               rule_times: Optional[Dict[str, float]] = None,
               added: Optional[List[Fact]] = None) -> int:
    """Dispatched semi-naive rounds until quiescence.

    The compiled twin of :func:`.engine._semi_naive_rounds`: ``store``
    is mutated in place, ``delta`` holds the facts not yet joined
    against the rest of the store (already *in* the store) — a
    :class:`RoundDelta` built for ``compiled`` — and the returned value
    is the number of rounds executed.
    Like ``firings``, ``provenance`` and ``rule_times``, ``added`` is
    filled in when given: the facts the rounds added to the store, in
    insertion order (insertion maintenance reports them; a full closure
    does not ask).
    """
    iterations = 0
    observing = _obs.ENABLED and rule_times is not None
    total = len(compiled.compiled)
    while delta:
        if max_iterations is not None and iterations >= max_iterations:
            break
        iterations += 1
        round_span = (_obs.TELEMETRY.span("closure.round", **{
                          "engine": "dispatched", "round": iterations,
                          "delta_in": len(delta)})
                      if observing else _obs.NULL_SPAN)
        with round_span as rspan:
            active = compiled.select(delta.relationships())
            if observing:
                skipped = total - len(active)
                if skipped:
                    _obs.TELEMETRY.count("dispatch.skipped_rules", skipped)
                _obs.TELEMETRY.count("dispatch.fired_rules", len(active))
            fresh: Set[Fact] = set()
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
                for slots in cr.solutions(delta.lookup(*cr.pivot_key),
                                          store, context):
                    for spec in heads:
                        fact = _materialize(spec, slots)
                        if fact not in store and fact not in fresh:
                            fresh.add(fact)
                            firings[rule_name] += 1
                            if provenance is not None \
                                    and fact not in provenance:
                                provenance[fact] = Justification(
                                    rule_name, cr.premises(slots))
                if observing:
                    rule_times[rule_name] = (
                        rule_times.get(rule_name, 0.0)
                        + time.perf_counter() - rule_started)
            if observing:
                apply_started = time.perf_counter()
            delta = RoundDelta(compiled.delta_indexes)
            for fact in fresh:
                if store.add(fact):
                    delta.add(fact)
            if added is not None:
                added.extend(fresh)     # each was new to the store
            if observing:
                rule_times[APPLY] = (rule_times.get(APPLY, 0.0)
                                     + time.perf_counter() - apply_started)
            rspan.set(fresh_out=len(delta))
    return iterations


def dispatched_closure(base: Iterable[Fact], rules: Sequence[Rule],
                       context: RuleContext,
                       max_iterations: Optional[int] = None,
                       trace: bool = False,
                       compiled: Optional[CompiledRuleSet] = None,
                       added: Optional[List[Fact]] = None):
    """Fixpoint by dispatched, compiled semi-naive rounds.

    Drop-in equivalent of :func:`.engine.semi_naive_closure` (identical
    closure contents, rounds, firings and provenance) with both
    fast-path layers applied.  ``compiled`` lets callers reuse a
    :class:`CompiledRuleSet` across closures — the
    :class:`~repro.rules.registry.RuleRegistry` caches one per enabled
    rule set.  ``added`` is :func:`run_rounds`' sink, filled when given
    with the facts the rounds derived (a closure over an interned base
    flags its rows with it).
    """
    rules = list(rules)
    if compiled is None or compiled.rules != rules:
        compiled = compile_ruleset(rules)
    observing = _obs.ENABLED
    closure_span = (_obs.TELEMETRY.span("closure.dispatched",
                                     rules=len(rules))
                    if observing else _obs.NULL_SPAN)
    with closure_span as span:
        store = seed_store(base)
        base_count = len(store)
        firings: Dict[str, int] = {rule.name: 0 for rule in rules}
        rule_times: Dict[str, float] = {}
        provenance: Optional[Dict[Fact, Any]] = {} if trace else None
        loop_started = time.perf_counter()
        # No rule has joined against anything yet: every base fact is
        # the first delta.
        first = RoundDelta.of_store(store, compiled.delta_indexes)
        iterations = run_rounds(store, first, compiled, context, firings,
                                max_iterations, provenance, rule_times,
                                added)
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
                rule_times=result.rule_times, added=added)
    result.derived_count = len(result.store) - result.base_count
    return added
