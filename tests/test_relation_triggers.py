"""The trigger declaration of the computed relations.

``ComputedRelation.handles`` is derived from a relation's ``TRIGGERS``
— per position, the names that trigger it.  The three hand-written
``handles`` the standard relations carried before they declared their
triggers are kept here verbatim, and the derived one must agree with
them on templates mixing variables (some named like a trigger), ``∇``,
``Δ``, ``≺``, the six comparators and plain names in every position.
The compiled executor's ground-trigger annotation
(:func:`repro.query.compile.bind_atom_ids`) must equal ``handles`` per
relation, and mark a relation that declares nothing for every key.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entities import BOTTOM, EQ, GE, GT, ISA, LE, LT, NE, TOP
from repro.core.facts import Fact, Template, Variable
from repro.core.interned import ColumnarGeneration
from repro.query.compile import bind_atom_ids
from repro.virtual import (ComputedRelation, EndpointWitness, MathRelation,
                           ReflexiveGeneralization)


class _Verbatim:
    """The ``handles`` overrides the declarations replaced."""

    HANDLED = MathRelation.HANDLED

    def math(self, pattern: Template) -> bool:
        return (isinstance(pattern.relationship, str)
                and pattern.relationship in self.HANDLED)

    def reflexive(self, pattern: Template) -> bool:
        return pattern.relationship == ISA

    def endpoint(self, pattern: Template) -> bool:
        return (pattern.source == BOTTOM or pattern.relationship == TOP
                or pattern.target == TOP)


class _Undeclared(ComputedRelation):
    """A relation that decides in its own ``handles``."""

    def handles(self, pattern: Template) -> bool:
        return pattern.relationship == "ECHOES"

    def facts(self, pattern, store):
        return iter(())


_NAMES = [BOTTOM, TOP, ISA, EQ, NE, LT, GT, LE, GE, "JOHN", "EARNS",
          "25000", "∈", "ECHOES"]
_components = st.one_of(st.sampled_from(_NAMES),
                        st.sampled_from(_NAMES + ["x", "y"]).map(Variable))
_templates = st.builds(Template, _components, _components, _components)


@settings(max_examples=400, deadline=None)
@given(pattern=_templates)
def test_derived_handles_equal_the_overrides(pattern):
    verbatim = _Verbatim()
    assert MathRelation().handles(pattern) == verbatim.math(pattern)
    assert ReflexiveGeneralization().handles(pattern) \
        == verbatim.reflexive(pattern)
    assert EndpointWitness().handles(pattern) == verbatim.endpoint(pattern)


@settings(max_examples=400, deadline=None)
@given(pattern=_templates)
def test_ground_annotation_equals_handles(pattern):
    relations = (MathRelation(), ReflexiveGeneralization(),
                 EndpointWitness(), _Undeclared())
    # The marks read names, not ids: any generation will do.
    empty = ColumnarGeneration.build(())
    ann = bind_atom_ids(pattern, empty, relations)
    for relation, triggers in zip(relations[:3], ann.triggers):
        assert (True in triggers) == relation.handles(pattern)
        # A position marked holds a name declared for it.
        assert all(not marked or pattern[p] in relation.TRIGGERS[p]
                   for p, marked in enumerate(triggers))
    assert ann.triggers[3] is None and ann.every_key
    standard = bind_atom_ids(pattern, empty, relations[:3])
    assert standard.every_key == any(r.handles(pattern)
                                     for r in relations[:3])


def test_a_relation_that_declares_nothing_must_decide_itself():
    class Silent(ComputedRelation):
        pass

    try:
        Silent().handles(Template(*Fact("A", "B", "C")))
    except NotImplementedError:
        return
    raise AssertionError("an undeclared relation handled a template")
