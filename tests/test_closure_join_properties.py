"""The dispatched closure's join, against the references it replaced.

Two properties:

* **Closures.**  For any subset of the standard rules plus one or two
  random user rules (one to three atoms, constants in every position
  including the pivot's, repeated variables, two guards on one slot, a
  :class:`Condition` subclass the compiler does not know, a condition
  on a variable the body never binds),
  :func:`dispatched_closure` must agree with :func:`semi_naive_closure`
  on the store, the firings, the rounds and the provenance — over a
  hash base and over an interned base with an overlay and a tombstone.
* **One join.**  :meth:`CompiledRule.solutions`, run on ids, yields
  (decoded) the slot sequence of ``_recursive_solutions`` below — the
  per-candidate recursive generator the engine ran before its joins
  became one iterative walk, kept here as the oracle and reading the
  same store by names — over an :class:`IdProbe` of a
  :class:`FactStore`, of an :class:`InternedFactStore` with an overlay
  and tombstones, and of a generation with grown facts beside it, with
  pivot candidates from an :class:`IdDelta`, a hash store and an
  interned store, on both sides of the semi-join's size test (a delta
  of one fact, a delta of every fact).
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.entities import INV, ISA, MEMBER, SYN
from repro.core.facts import Fact, Template, Variable
from repro.core.interned import IdDelta, IdProbe, InternedFactStore
from repro.core.store import FactStore
from repro.rules.builtin import STANDARD_RULES
from repro.rules.dispatch import (
    CompiledRule,
    JoinContext,
    dispatched_closure,
)
from repro.rules.engine import semi_naive_closure
from repro.rules.rule import (
    Condition,
    Distinct,
    IndividualRelationship,
    NotSpecial,
    RelationshipClassifier,
    Rule,
    RuleContext,
)

NAMES = ["A", "B", "C"]
RELATIONSHIPS = ["R", "S", ISA, MEMBER, SYN, INV]
VARIABLES = [Variable("x"), Variable("y"), Variable("z"), Variable("w")]
UNBOUND = Variable("u")


class _Avoid(Condition):
    """A condition type the compiler does not know: its variable must
    not denote ``name``."""

    def __init__(self, variable, name):
        self.variable = variable
        self.name = name

    def holds(self, binding, context):
        return binding.get(self.variable) != self.name

    def variables(self):
        return frozenset({self.variable})


#: Any subset of the standard rules, in registration order.
_standard_subsets = st.lists(
    st.booleans(), min_size=len(STANDARD_RULES),
    max_size=len(STANDARD_RULES)).map(
        lambda keep: [rule for rule, kept in zip(STANDARD_RULES, keep)
                      if kept])

_facts = st.lists(
    st.builds(Fact, st.sampled_from(NAMES),
              st.sampled_from(RELATIONSHIPS), st.sampled_from(NAMES)),
    min_size=1, max_size=10, unique=True)


@st.composite
def _rules(draw, name: str):
    """One user rule: one to three atoms, every position a variable or
    a constant, guards drawn from every condition kind."""
    body = []
    for _ in range(draw(st.integers(1, 3))):
        body.append(Template(
            draw(st.sampled_from(VARIABLES + NAMES)),
            draw(st.sampled_from(VARIABLES[:2] + RELATIONSHIPS)),
            draw(st.sampled_from(VARIABLES + NAMES))))
    bound = sorted({v for atom in body for v in atom.variable_set()},
                   key=lambda v: v.name)
    pick = st.sampled_from(bound + NAMES) if bound else st.sampled_from(NAMES)
    head = (Template(draw(pick),
                     draw(st.sampled_from(bound + ["T", ISA])
                          if bound else st.sampled_from(["T", ISA])),
                     draw(pick)),)
    conditions = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 5))
        subject = draw(st.sampled_from(bound)) if bound else "A"
        if kind == 0:
            conditions.append(Distinct(subject, draw(pick)))
        elif kind == 1:
            conditions.append(IndividualRelationship(subject))
        elif kind == 2:
            conditions.append(NotSpecial(subject))
        elif kind == 3:
            # Two guards on one slot: each keeps its own verdicts.
            conditions += [IndividualRelationship(subject),
                           NotSpecial(subject)]
        elif kind == 4:
            conditions.append(_Avoid(subject, draw(st.sampled_from(NAMES))))
        else:
            conditions.append(_Avoid(UNBOUND, "A"))
    return Rule(name=name, body=tuple(body), head=head,
                conditions=tuple(conditions))


def _context(facts) -> RuleContext:
    return RuleContext(classifier=RelationshipClassifier(FactStore(facts)))


def _interned(facts) -> InternedFactStore:
    """Half the facts in a generation, the rest in the overlay, the
    generation's first fact a tombstone (when there are two or more)."""
    half = (len(facts) + 1) // 2
    store = InternedFactStore.from_facts(facts[:half])
    for fact in facts[half:]:
        store.add(fact)
    if len(facts) > 1:
        store.discard(facts[0])
    return store


@settings(max_examples=60, deadline=None)
@given(facts=_facts, standard=_standard_subsets,
       user=st.lists(st.integers(0, 1), min_size=1, max_size=2,
                     unique=True).flatmap(
           lambda names: st.tuples(*[_rules(f"user{n}") for n in names])),
       layout=st.sampled_from(["hash", "interned"]))
@example(facts=[Fact("A", "R", "B"), Fact("B", ISA, "C"),
                Fact("C", "S", "A")],
         standard=list(STANDARD_RULES),
         user=(Rule(name="user0",
                    body=(Template("A", Variable("y"), Variable("x")),
                          Template(Variable("x"), ISA, Variable("x"))),
                    head=(Template(Variable("x"), "T", Variable("y")),),
                    conditions=(IndividualRelationship(Variable("y")),
                                NotSpecial(Variable("y")))),),
         layout="hash")
# Without both synonym rules nothing consumes every relationship: a
# chain of ≺ facts feeds membership and inheritance round after round.
@example(facts=[Fact("A", ISA, "B"), Fact("B", ISA, "C"),
                Fact("C", MEMBER, "A"), Fact("C", "R", "A")],
         standard=[rule for rule in STANDARD_RULES
                   if not rule.name.startswith("syn-")],
         user=(Rule(name="user0",
                    body=(Template(Variable("x"), "R", Variable("y")),),
                    head=(Template(Variable("y"), "R", Variable("x")),)),),
         layout="hash")
def test_dispatched_closure_is_the_semi_naive_one(facts, standard, user,
                                                  layout):
    rules = list(standard) + list(user)
    base = facts if layout == "hash" else _interned(facts)
    context = _context(list(base))
    semi = semi_naive_closure(base, rules, context, trace=True)
    fast = dispatched_closure(base, rules, context, trace=True)
    assert set(fast.store) == set(semi.store)
    assert fast.rule_firings == semi.rule_firings
    assert fast.iterations == semi.iterations
    assert fast.provenance == semi.provenance


def _recursive_solutions(rule, pivot, candidates, store, context):
    """The slot assignments of one pivoted body, joined the way the
    engine did before one iterative walk: a generator per candidate,
    conditions at the earliest level that binds their variables.  The
    pivot atom is matched against ``candidates``, the rest against
    ``store`` by names."""
    body = (rule.body[pivot],) + rule.body[:pivot] + rule.body[pivot + 1:]
    slot_of = {}
    for atom in body:
        for component in atom:
            if isinstance(component, Variable) and component not in slot_of:
                slot_of[component] = len(slot_of)
    levels, bound, bound_after = [], set(), []
    for atom in body:
        parts, fills, checks, here = [], [], [], set()
        for position, component in enumerate(atom):
            if not isinstance(component, Variable):
                parts.append(("c", component))
                continue
            slot = slot_of[component]
            if slot in bound:
                parts.append(("b", slot))
            elif slot in here:
                parts.append(("f", None))
                checks.append((position, slot))
            else:
                parts.append(("f", None))
                fills.append((position, slot))
                here.add(slot)
        bound |= here
        bound_after.append(set(bound))
        levels.append((parts, fills, checks, []))
    for condition in rule.conditions:
        variables = condition.variables()
        index = len(levels) - 1
        if all(v in slot_of for v in variables):
            needed = {slot_of[v] for v in variables}
            index = next(i for i, slots_bound in enumerate(bound_after)
                         if needed <= slots_bound)
        levels[index][3].append(condition)
    slots = [None] * len(slot_of)

    def holds(condition):
        binding = {v: slots[slot_of[v]] for v in condition.variables()
                   if v in slot_of}
        return condition.holds(binding, context)

    def extend(i):
        parts, fills, checks, conditions = levels[i]
        key = [value if tag == "c" else slots[value] if tag == "b"
               else None for tag, value in parts]
        for fact in candidates if i == 0 else store.lookup(*key):
            for position, slot in fills:
                slots[slot] = fact[position]
            if any(fact[position] != slots[slot]
                   for position, slot in checks):
                continue
            if not all(holds(condition) for condition in conditions):
                continue
            if i == len(levels) - 1:
                yield list(slots)
            else:
                yield from extend(i + 1)

    return extend(0)


class _ByNames:
    """An id store read by names, in its own order."""

    def __init__(self, probe: IdProbe, join: JoinContext):
        self.probe, self.join = probe, join

    def lookup(self, *key):
        ground = [(letter, self.join.codec.encode(name))
                  for letter, name in zip("srt", key) if name is not None]
        ids = tuple(i for _, i in ground)
        return [self.join.fact(triple) for triple in self.probe.lookup(
            "".join(letter for letter, _ in ground),
            ids[0] if len(ids) == 1 else ids)]


def _id_store(kind, facts):
    """The store ``solutions`` joins against, and its facts by names: a
    hash store, an interned one with an overlay and a tombstone, or a
    generation of half the facts with the rest grown beside it."""
    if kind == "grown":
        half = (len(facts) + 1) // 2
        probe = IdProbe(InternedFactStore.from_facts(facts[:half]),
                        IdDelta(("s", "r", "t", "sr", "st", "rt")))
        for fact in facts[half:]:
            if probe.ids(fact) not in probe:
                probe.add(probe.ids(fact))
        return probe, facts
    named = FactStore(facts) if kind == "hash" else _interned(facts)
    return IdProbe(named), list(named)


@settings(max_examples=120, deadline=None)
@given(facts=_facts, rule=_rules("user0"), pivot=st.integers(0, 2),
       store_kind=st.sampled_from(["hash", "interned", "grown"]),
       delta_kind=st.sampled_from(["round", "hash", "interned"]),
       delta_size=st.sampled_from(["one", "all"]))
# The semi-join applies: every fact is a candidate of the pivot
# (x, y, z) and only one fact matches level 1's constants (B, R, _).
@example(facts=[Fact("A", "R", "B"), Fact("B", "R", "C"),
                Fact("C", "S", "A"), Fact("A", "S", "C")],
         rule=Rule(name="user0",
                   body=(Template(Variable("x"), Variable("y"),
                                  Variable("z")),
                         Template("B", "R", Variable("x"))),
                   head=(Template(Variable("x"), "T", Variable("z")),),
                   conditions=(IndividualRelationship(Variable("y")),
                               NotSpecial(Variable("y")))),
         pivot=0, store_kind="hash", delta_kind="round", delta_size="all")
# Two guards on one slot disagree on ≺ (an individual relationship,
# and a special one): a memo per guard kind, not per slot, lets (A, ≺,
# C) in.
@example(facts=[Fact("A", "R", "B"), Fact("A", ISA, "C")],
         rule=Rule(name="user0",
                   body=(Template(Variable("x"), Variable("y"),
                                  Variable("z")),),
                   head=(Template(Variable("x"), "T", Variable("z")),),
                   conditions=(IndividualRelationship(Variable("y")),
                               NotSpecial(Variable("y")))),
         pivot=0, store_kind="interned", delta_kind="round",
         delta_size="all")
def test_solutions_walk_the_recursive_join(facts, rule, pivot, store_kind,
                                           delta_kind, delta_size):
    pivot %= len(rule.body)
    cr = CompiledRule(rule, pivot, 0)
    if cr.dead:
        return
    context = _context(facts)
    store, named = _id_store(store_kind, facts)
    join = JoinContext(context, store)
    chosen = facts[-1:] if delta_size == "one" else named
    if delta_kind == "round":
        # The one index the pivot key reads ("" and "srt" need none).
        indexes = [cr.pivot_index] if cr.pivot_index not in ("", "srt") \
            else []
        candidates = list(cr.candidates(
            IdDelta(indexes, map(join.ids, chosen)), join))
    else:
        delta = FactStore(chosen) if delta_kind == "hash" \
            else _interned(chosen)
        candidates = [join.ids(fact) for fact in delta.lookup(*(
            None if isinstance(component, Variable) else component
            for component in rule.body[pivot]))]
    expected = list(_recursive_solutions(
        rule, pivot, list(map(join.fact, candidates)),
        _ByNames(store, join), context))
    got = [[join.codec.decode(i) for i in slots[:cr.n_slots]]
           for slots in cr.solutions(candidates, store, join)]
    assert got == expected
