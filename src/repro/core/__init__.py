"""Core fact model: entities, facts, templates, and the fact heap.

Everything above this layer manipulates the same three shapes: `Fact`
triplets over string entities (:mod:`repro.core.facts`), `Template`
patterns with variables, and the fully indexed :class:`FactStore`
(:mod:`repro.core.store`).  The package also holds the cross-cutting
utilities the upper layers share: the special-entity vocabulary
(:mod:`repro.core.entities`), the typed error hierarchy
(:mod:`repro.core.errors`) and cooperative per-request deadlines
(:mod:`repro.core.deadline`).

Example::

    from repro.core import Fact, FactStore, template, var

    store = FactStore([Fact("JOHN", "EARNS", "$25000")])
    pattern = template("JOHN", var("r"), var("y"))
    assert [f.target for f in store.match(pattern)] == ["$25000"]
"""

from .entities import (
    BOTTOM,
    CLASS_RELATIONSHIP,
    CONTRA,
    COMPOSITION_SEPARATOR,
    EQ,
    GE,
    GT,
    INDIVIDUAL_RELATIONSHIP,
    INV,
    ISA,
    LE,
    LT,
    MATH_RELATIONSHIPS,
    MEMBER,
    NE,
    SPECIAL_RELATIONSHIPS,
    SYN,
    TOP,
    VIRTUAL_ENTITIES,
    compose_relationship,
    composition_length,
    is_composed,
    is_math_relationship,
    is_numeric,
    is_special_relationship,
    numeric_value,
    validate_entity,
)
from .errors import (
    EntityError,
    InfiniteRelationError,
    IntegrityError,
    ParseError,
    QueryError,
    ReproError,
    RuleError,
    StorageError,
    TemplateError,
    UnknownRuleError,
)
from .facts import Fact, Template, Variable, fact, template, var
from .store import FactStore

__all__ = [
    "BOTTOM", "CLASS_RELATIONSHIP", "CONTRA", "COMPOSITION_SEPARATOR", "EQ",
    "GE", "GT", "INDIVIDUAL_RELATIONSHIP", "INV", "ISA", "LE", "LT",
    "MATH_RELATIONSHIPS", "MEMBER", "NE", "SPECIAL_RELATIONSHIPS", "SYN",
    "TOP", "VIRTUAL_ENTITIES", "compose_relationship", "composition_length",
    "is_composed", "is_math_relationship", "is_numeric",
    "is_special_relationship", "numeric_value", "validate_entity",
    "EntityError", "InfiniteRelationError", "IntegrityError", "ParseError",
    "QueryError", "ReproError", "RuleError", "StorageError", "TemplateError",
    "UnknownRuleError", "Fact", "Template", "Variable", "fact", "template",
    "var", "FactStore",
]
