"""A wave answered as one join equals its candidates answered alone.

``CompiledEvaluator.evaluate_wave`` groups a wave's candidates by
variable skeleton, lifts every constant to a seed column and runs one
join per group; the property here is that its per-candidate answers
equal ``[evaluate(c.to_query()) for c in wave]`` — and the reference
engine's — on random small heaps, on every store layout, for seeds
that are ``Δ`` / ``∇`` / ``≺`` / a comparator / unknown to the
interner, repeated variables, two- and three-template joins with
shared and ∃-projected variables, deleted templates and candidates
whose ``free`` shrank.

Why a candidate's own join order is part of its group: the value of
a conjunction is independent of join order *except* where a computed
relation enumerates less than it tests — a comparator enumerates the
active domain but tests any two names; ``(B, ≺, x)`` binds ``x`` to
``Δ``, which ``(A, R, x)`` enumerates never and, once bound, is
witnessed by any ``R`` fact of ``A``; a relationship-position variable
matches stored facts only until something binds it to ``≺``.  With one
or two templates a group runs in exactly its candidates' own order and
the generator holds nothing back.  A pipeline of three may re-order
its tail mid-run by measured fanout (the group's, not one
candidate's; the two engines differ the same way), so there the
generator keeps every atom one fixed relation: a comparator or ``≺``
atom shares no variable with another atom and a relationship-position
variable occurs once.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.browse.retraction import ConjunctiveQuery
from repro.core.entities import (
    BOTTOM, EQ, ISA, LT, MATH_RELATIONSHIPS, MEMBER, NE, TOP)
from repro.core.facts import Fact, Template, Variable
from repro.core.interned import OVERLAY_BUDGET
from repro.db import Database
from repro.query.evaluate import Evaluator
from repro.query.exec import CompiledEvaluator

NAMES = ["A", "B", "C", "1", "2"]
RELATIONS = ["R", "S"]
#: Constants a retraction (or a user) can put in any position: the
#: endpoints, ``≺``, comparators, a name no fact mentions.
SPECIAL = [TOP, BOTTOM, ISA, LT, EQ, NE, "GHOST"]
X, Y, Z = Variable("x"), Variable("y"), Variable("z")

_facts = st.lists(
    st.builds(Fact, st.sampled_from(NAMES),
              st.sampled_from(RELATIONS + [ISA, MEMBER]),
              st.sampled_from(NAMES)),
    min_size=1, max_size=16, unique=True)
_entity = st.one_of(st.sampled_from([X, Y, Z]), st.sampled_from(NAMES),
                    st.sampled_from(SPECIAL))
_constant = st.sampled_from(NAMES + RELATIONS + SPECIAL)


@st.composite
def _templates(draw):
    """One to three templates."""
    templates = []
    for index in range(draw(st.integers(1, 3))):
        relationship = draw(st.one_of(
            st.sampled_from(RELATIONS + RELATIONS + SPECIAL + [MEMBER]),
            st.sampled_from([X, Variable(f"r{index}")])))
        templates.append(Template(draw(_entity), relationship,
                                  draw(_entity)))
    return tuple(templates)


def order_proof(templates) -> bool:
    """True unless three templates could answer differently in another
    join order (see the module docstring)."""
    if len(templates) < 3:
        return True
    for index, template in enumerate(templates):
        others = set()
        for other in templates[:index] + templates[index + 1:]:
            others |= other.variable_set()
        relationship = template.relationship
        if isinstance(relationship, Variable):
            if relationship in others \
                    or relationship in (template.source, template.target):
                return False
        elif relationship in MATH_RELATIONSHIPS or relationship == ISA:
            if template.variable_set() & others:
                return False
    return True


@st.composite
def _waves(draw):
    """A conjunctive query and broader-or-not variants of it: constants
    replaced by constants (same skeleton), templates deleted (another
    skeleton, ``free`` recomputed)."""
    templates = draw(_templates().filter(order_proof))
    variables = sorted({v for t in templates for v in t.variable_set()},
                       key=lambda v: v.name)
    free = tuple(draw(st.lists(st.sampled_from(variables), unique=True))
                 if variables else ())
    wave = [ConjunctiveQuery(templates, free)]
    for _ in range(draw(st.integers(1, 6))):
        index = draw(st.integers(0, len(templates) - 1))
        if len(templates) > 1 and draw(st.integers(0, 3)) == 0:
            remaining = templates[:index] + templates[index + 1:]
            left = {v for t in remaining for v in t.variable_set()}
            wave.append(ConjunctiveQuery(
                remaining, tuple(v for v in free if v in left)))
            continue
        ground = [p for p, c in enumerate(templates[index])
                  if not isinstance(c, Variable)]
        if not ground:
            continue
        components = list(templates[index])
        components[draw(st.sampled_from(ground))] = draw(_constant)
        variant = (templates[:index] + (Template(*components),)
                   + templates[index + 1:])
        if order_proof(variant):
            wave.append(ConjunctiveQuery(variant, free))
    return wave


def _database(facts, layout) -> Database:
    half = facts if layout == "plain" else facts[:(len(facts) + 1) // 2]
    db = Database(half)
    if layout == "plain":
        return db
    db.view()
    db.compact_store()
    if layout != "compacted":
        # The other half lands in the overlay; the first fact of the
        # generation becomes a tombstone.
        db.add_facts(facts[len(half):])
        db.remove_fact(half[0])
    if layout == "over-budget":
        db.add_facts(Fact(f"BULK{n}", "R", "A")
                     for n in range(OVERLAY_BUDGET + 1))
    return db


@settings(max_examples=300, deadline=None)
@given(facts=_facts, wave=_waves(),
       layout=st.sampled_from(
           ["plain", "compacted", "overlay", "over-budget"]))
# A repeated unbound variable over an overlay probed per seed row:
# (C, R, B) is in the overlay and is not an answer.
@example(
    facts=[Fact("B", "S", "B"), Fact("A", "R", "B"), Fact("B", "R", "C"),
           Fact("A", "R", "A"), Fact("C", "R", "B"), Fact("C", "S", "C")],
    wave=[ConjunctiveQuery((Template(X, "R", X),), (X,)),
          ConjunctiveQuery((Template(X, "S", X),), (X,))],
    layout="overlay")
# One skeleton, two join orders: alone, the first binds x through ≺
# (so x can be Δ) and the second enumerates ≠ over the active domain.
@example(
    facts=[Fact("A", "R", "B"), Fact("A", ISA, "C")],
    wave=[ConjunctiveQuery((Template("A", ISA, X), Template(X, NE, "B")),
                           (X,)),
          ConjunctiveQuery((Template(BOTTOM, ISA, X), Template(X, NE, "B")),
                           (X,))],
    layout="compacted")
def test_a_wave_join_answers_each_candidate_as_evaluate_would(
        facts, wave, layout):
    db = _database(facts, layout)
    view = db.view()
    values, joins = CompiledEvaluator(view).evaluate_wave(wave)
    alone = [CompiledEvaluator(view).evaluate(c.to_query()) for c in wave]
    assert values == alone
    assert values == Evaluator(view).evaluate_wave(wave)[0]
    skeletons = {
        (tuple(tuple(isinstance(c, Variable) and c for c in t)
               for t in c.templates), c.free) for c in wave}
    # One join per skeleton, split only where candidates of one
    # skeleton would join their templates in different orders.
    assert len(skeletons) <= joins <= len(wave)
    if all(len(c.templates) == 1 for c in wave):
        assert joins == len(skeletons)
