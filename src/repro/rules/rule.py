"""Rules: pairs of template sets (paper §2.6).

"Each rule may therefore be specified with two sets of templates ...
A rule is a pair <L, R>."  A :class:`Rule` here is exactly that —
a conjunctive body of templates implying a set of head templates —
plus *conditions*, the side constraints the paper writes as
quantifier restrictions ("∀ r ∈ R_i") and inequality guards
("by insisting that the source of the first fact is different from
the target of the second fact").

Conditions are small declarative objects (not bare lambdas) so rules
can be printed, compared, and listed in documentation and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple, Union

from ..core.entities import (
    CLASS_RELATIONSHIP,
    INDIVIDUAL_RELATIONSHIP,
    MEMBER,
    is_composed,
    is_special_relationship,
)
from ..core.facts import Binding, Component, Template, Variable
from ..core.store import FactStore
from ..core.errors import RuleError


class RelationshipClassifier:
    """Partition of relationships into R_i and R_c (paper §2.2).

    Classification is itself stored as facts: ``(r, ∈, CLASS-RELATIONSHIP)``
    puts ``r`` into R_c; ``(r, ∈, INDIVIDUAL-RELATIONSHIP)`` (or no
    declaration at all) leaves it in R_i.  ``∈`` is a class relationship
    and ``≺`` an individual one by definition (§2.3); composed (path)
    relationships are treated as class relationships so inheritance does
    not multiply paths.
    """

    def __init__(self, store: FactStore):
        self._class_declared: FrozenSet[str] = frozenset(
            f.source
            for f in store.match(
                Template(Variable("r"), MEMBER, CLASS_RELATIONSHIP)))
        self._individual_declared: FrozenSet[str] = frozenset(
            f.source
            for f in store.match(
                Template(Variable("r"), MEMBER, INDIVIDUAL_RELATIONSHIP)))

    def is_individual(self, relationship: str) -> bool:
        """True if ``relationship`` belongs to R_i."""
        if relationship in self._individual_declared:
            return True
        if relationship == MEMBER:
            return False
        if relationship in self._class_declared:
            return False
        if is_composed(relationship):
            return False
        return True

    def is_class(self, relationship: str) -> bool:
        """True if ``relationship`` belongs to R_c."""
        return not self.is_individual(relationship)


@dataclass
class RuleContext:
    """Everything a condition may consult during rule evaluation."""

    classifier: RelationshipClassifier


class Condition:
    """A side constraint on a rule's variable binding."""

    def holds(self, binding: Binding, context: RuleContext) -> bool:
        raise NotImplementedError

    def variables(self) -> FrozenSet[Variable]:
        """Variables this condition needs bound before it can be
        checked (used for eager pruning during joins)."""
        raise NotImplementedError


def _resolve(component: Component, binding: Binding) -> Optional[str]:
    """The entity a component denotes under a binding, or None."""
    if isinstance(component, Variable):
        return binding.get(component)
    return component


@dataclass(frozen=True)
class Distinct(Condition):
    """The two components must denote different entities."""

    left: Component
    right: Component

    def holds(self, binding: Binding, context: RuleContext) -> bool:
        return _resolve(self.left, binding) != _resolve(self.right, binding)

    def variables(self) -> FrozenSet[Variable]:
        return frozenset(
            c for c in (self.left, self.right) if isinstance(c, Variable))

    def __str__(self) -> str:
        return f"{self.left} ≠ {self.right}"


@dataclass(frozen=True)
class IndividualRelationship(Condition):
    """The component must denote a relationship in R_i (§2.2)."""

    component: Component

    def holds(self, binding: Binding, context: RuleContext) -> bool:
        entity = _resolve(self.component, binding)
        return entity is not None and context.classifier.is_individual(entity)

    def variables(self) -> FrozenSet[Variable]:
        if isinstance(self.component, Variable):
            return frozenset({self.component})
        return frozenset()

    def __str__(self) -> str:
        return f"{self.component} ∈ R_i"


@dataclass(frozen=True)
class NotSpecial(Condition):
    """The component must not be one of the special relationship
    entities (``≺ ∈ ≈ ↔ ⊥`` and the comparators), which have their own
    dedicated rules."""

    component: Component

    def holds(self, binding: Binding, context: RuleContext) -> bool:
        entity = _resolve(self.component, binding)
        return entity is not None and not is_special_relationship(entity)

    def variables(self) -> FrozenSet[Variable]:
        if isinstance(self.component, Variable):
            return frozenset({self.component})
        return frozenset()

    def __str__(self) -> str:
        return f"{self.component} not special"


# ----------------------------------------------------------------------
# Relationship signatures (static dispatch analysis)
# ----------------------------------------------------------------------
class _RelationshipWildcard:
    """A non-ground relationship-position signature (see
    :func:`atom_relationship_spec`)."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return f"<{self.label}>"


#: The atom's relationship position is an unconstrained variable: it can
#: match (or, in a head, produce) a fact with *any* relationship.
ANY_RELATIONSHIP = _RelationshipWildcard("any-relationship")

#: The atom's relationship position is a variable guarded by a
#: :class:`NotSpecial` condition: it can only match/produce facts whose
#: relationship is not one of the special entities (``≺ ∈ ≈ ↔ ⊥`` and
#: the comparators).
NONSPECIAL_RELATIONSHIP = _RelationshipWildcard("nonspecial-relationship")

#: What a template's relationship position can statically match: a
#: ground relationship entity, or one of the two wildcard signatures.
RelationshipSpec = Union[str, _RelationshipWildcard]


def atom_relationship_spec(atom: Template,
                           conditions: Sequence[Condition]
                           ) -> RelationshipSpec:
    """The static signature of one atom's relationship position.

    A ground position is its own signature.  A variable position is
    :data:`NONSPECIAL_RELATIONSHIP` when some :class:`NotSpecial`
    condition constrains that variable (the guard is checked as soon as
    the variable is bound, so facts with special relationships can
    never satisfy the atom), :data:`ANY_RELATIONSHIP` otherwise.
    """
    relationship = atom.relationship
    if not isinstance(relationship, Variable):
        return relationship
    for condition in conditions:
        if (isinstance(condition, NotSpecial)
                and condition.component == relationship):
            return NONSPECIAL_RELATIONSHIP
    return ANY_RELATIONSHIP


def specs_overlap(produced: RelationshipSpec,
                  consumed: RelationshipSpec) -> bool:
    """True if a fact produced under one signature could match an atom
    consuming under the other (a sound overapproximation)."""
    if produced is ANY_RELATIONSHIP or consumed is ANY_RELATIONSHIP:
        return True
    if produced is NONSPECIAL_RELATIONSHIP:
        return (consumed is NONSPECIAL_RELATIONSHIP
                or not is_special_relationship(consumed))
    if consumed is NONSPECIAL_RELATIONSHIP:
        return not is_special_relationship(produced)
    return produced == consumed


@dataclass(frozen=True)
class Rule:
    """An inference rule or integrity constraint: ``body ⇒ head``.

    Attributes:
        name: unique name, the handle for ``include``/``exclude`` (§6.1).
        body: conjunction of templates (the rule's L).
        head: templates derived when the body matches (the rule's R).
        conditions: side constraints on the binding.
        description: one-line human explanation (shown in docs/benches).
        is_constraint: True for integrity constraints — rules whose
            derived facts express *required* relationships (§2.5); the
            integrity checker reports, rather than silently tolerates,
            their contradiction.
        text: the text the rule was parsed from
            (:meth:`~repro.db.Database.define_rule`), which a
            checkpoint writes to the snapshot; empty for a rule built
            in code.
    """

    name: str
    body: Tuple[Template, ...]
    head: Tuple[Template, ...]
    conditions: Tuple[Condition, ...] = ()
    description: str = ""
    is_constraint: bool = False
    text: str = ""

    def __post_init__(self):
        if not self.name:
            raise RuleError("rule must have a name")
        if not self.body:
            raise RuleError(f"rule {self.name!r} has an empty body")
        if not self.head:
            raise RuleError(f"rule {self.name!r} has an empty head")
        body_vars = set()
        for atom in self.body:
            body_vars.update(atom.variable_set())
        for atom in self.head:
            unsafe = atom.variable_set() - body_vars
            if unsafe:
                names = ", ".join(sorted(v.name for v in unsafe))
                raise RuleError(
                    f"rule {self.name!r} is unsafe: head variables"
                    f" {{{names}}} do not occur in the body")

    def body_variables(self) -> FrozenSet[Variable]:
        variables = set()
        for atom in self.body:
            variables.update(atom.variable_set())
        return frozenset(variables)

    def produced_relationship_specs(self) -> Tuple[RelationshipSpec, ...]:
        """Per head atom, the relationships its derived facts can carry
        — the rule's output signature, for Delete/Rederive's head
        table."""
        return tuple(atom_relationship_spec(atom, self.conditions)
                     for atom in self.head)

    def rename_apart(self, suffix: str) -> "Rule":
        """A copy with every variable renamed (standardizing apart)."""
        mapping: Dict[Variable, Variable] = {
            v: Variable(f"{v.name}{suffix}") for v in self.body_variables()
        }
        return Rule(
            name=self.name,
            body=tuple(atom.rename(mapping) for atom in self.body),
            head=tuple(atom.rename(mapping) for atom in self.head),
            conditions=tuple(
                _rename_condition(c, mapping) for c in self.conditions),
            description=self.description,
            is_constraint=self.is_constraint,
            text=self.text,
        )

    def __str__(self) -> str:
        body = " ∧ ".join(repr(t) for t in self.body)
        head = " ∧ ".join(repr(t) for t in self.head)
        guards = ""
        if self.conditions:
            guards = "  [" + "; ".join(str(c) for c in self.conditions) + "]"
        return f"{self.name}: {body} ⇒ {head}{guards}"


def _rename_condition(condition: Condition,
                      mapping: Dict[Variable, Variable]) -> Condition:
    def rename(component: Component) -> Component:
        if isinstance(component, Variable):
            return mapping.get(component, component)
        return component

    if isinstance(condition, Distinct):
        return Distinct(rename(condition.left), rename(condition.right))
    if isinstance(condition, IndividualRelationship):
        return IndividualRelationship(rename(condition.component))
    if isinstance(condition, NotSpecial):
        return NotSpecial(rename(condition.component))
    raise RuleError(f"cannot rename unknown condition type: {condition!r}")
