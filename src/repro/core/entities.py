"""Entities: the basic units of data (paper §2.1).

An entity is a distinctly named unit of the modelled environment —
``JOHN``, ``PERSON``, ``$25000``.  We represent entities as plain
(interned) Python strings; this module defines the *special entities*
the paper relies on, plus helpers for numeric entities and validation.

Special entities (paper sections in parentheses):

========  =======================  ==========================================
constant  glyph                    meaning
========  =======================  ==========================================
ISA       ``≺``                    generalization (§2.3)
MEMBER    ``∈``                    membership (§2.3)
SYN       ``≈``                    synonym (§3.3)
INV       ``↔``                    inversion (§3.4)
CONTRA    ``⊥``                    contradiction (§3.5)
TOP       ``Δ``                    most abstract entity (§2.3)
BOTTOM    ``∇``                    most specified entity (§2.3)
LT/GT/..  ``<  >  =  ≠  ≤  ≥``     mathematical facts (§3.6)
========  =======================  ==========================================

Example::

    from repro.core.entities import MEMBER, is_numeric, numeric_value

    assert MEMBER == "∈"
    assert is_numeric("$25000") and numeric_value("$25000") == 25000
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import EntityError

# The paper's special relationship entities.
ISA = "≺"
MEMBER = "∈"
SYN = "≈"
INV = "↔"
CONTRA = "⊥"
TOP = "Δ"
BOTTOM = "∇"
LT = "<"
GT = ">"
EQ = "="
NE = "≠"
LE = "≤"
GE = "≥"

#: Mathematical comparator entities (§3.6) — all virtual, never stored.
MATH_RELATIONSHIPS = frozenset({LT, GT, EQ, NE, LE, GE})

#: Every special relationship entity.  The standard inference rules for
#: *ordinary* relationships (inheritance through ``≺``/``∈``) must not
#: fire when the relationship slot holds one of these; the special
#: entities have their own dedicated rules.
SPECIAL_RELATIONSHIPS = frozenset(
    {ISA, MEMBER, SYN, INV, CONTRA}) | MATH_RELATIONSHIPS

#: Entities that only exist virtually at the top/bottom of the
#: generalization hierarchy.
VIRTUAL_ENTITIES = frozenset({TOP, BOTTOM})

#: Classification classes for relationships (§2.2): declaring
#: ``(r, ∈, INDIVIDUAL_RELATIONSHIP)`` or ``(r, ∈, CLASS_RELATIONSHIP)``
#: puts ``r`` into R_i or R_c.  Undeclared relationships default to R_i.
INDIVIDUAL_RELATIONSHIP = "INDIVIDUAL-RELATIONSHIP"
CLASS_RELATIONSHIP = "CLASS-RELATIONSHIP"

#: Separator used to build composed (path) relationship entities, as in
#: the paper's ``ENROLLED-IN.CS100.TAUGHT-BY`` (§3.7).
COMPOSITION_SEPARATOR = "."

#: The ``limit(n)`` that disables composition (§6.1), the default.
COMPOSITION_OFF = 1

Entity = str
Number = Union[int, float]


def validate_entity(name: object) -> Entity:
    """Validate and return an entity name.

    Entities must be non-empty strings with no surrounding whitespace
    and no embedded newlines (they are written to one-line journals).

    Raises:
        EntityError: if ``name`` is not a valid entity.
    """
    if not isinstance(name, str):
        raise EntityError(f"entity must be a string, got {type(name).__name__}")
    if not name:
        raise EntityError("entity must be a non-empty string")
    if name != name.strip():
        raise EntityError(f"entity has surrounding whitespace: {name!r}")
    if "\n" in name or "\r" in name:
        raise EntityError(f"entity contains a newline: {name!r}")
    return name


def is_special_relationship(entity: Entity) -> bool:
    """True if ``entity`` is one of the paper's special relationship
    entities (``≺ ∈ ≈ ↔ ⊥`` or a mathematical comparator)."""
    return entity in SPECIAL_RELATIONSHIPS


def is_math_relationship(entity: Entity) -> bool:
    """True if ``entity`` is a mathematical comparator (§3.6)."""
    return entity in MATH_RELATIONSHIPS


def is_composed(entity: Entity) -> bool:
    """True if ``entity`` is a composed (path) relationship (§3.7).

    Composed relationships are built by the composition engine with
    :data:`COMPOSITION_SEPARATOR`; primitive entities never contain it.
    """
    return COMPOSITION_SEPARATOR in entity


def numeric_value(entity: Entity) -> Optional[Number]:
    """The numeric value of an entity, or ``None`` if non-numeric.

    The paper's examples write money as ``$25000``; we accept an
    optional leading ``$`` and thousands separators, e.g.::

        >>> numeric_value("$25,000")
        25000
        >>> numeric_value("2.6")
        2.6
        >>> numeric_value("JOHN") is None
        True
    """
    text = entity
    if text.startswith("$"):
        text = text[1:]
    text = text.replace(",", "")
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return None
    # Reject non-finite spellings such as "inf"/"nan": they are names,
    # not numbers, in a database of entities.
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def is_numeric(entity: Entity) -> bool:
    """True if the entity denotes a number (§3.6)."""
    return numeric_value(entity) is not None


def compose_relationship(r1: Entity, intermediate: Entity, r2: Entity) -> Entity:
    """Build the composed relationship entity for a path (§3.7).

    The paper names the composition of ``(TOM, ENROLLED-IN, CS100)``
    and ``(CS100, TAUGHT-BY, HARRY)`` as ``ENROLLED-IN.CS100.TAUGHT-BY``:
    the two relationships joined around the intermediate entity.
    """
    return COMPOSITION_SEPARATOR.join((r1, intermediate, r2))


def composition_length(relationship: Entity) -> int:
    """Number of primitive facts chained in a (possibly composed)
    relationship: 1 for a primitive relationship, 2 for ``r1.t.r2``,
    and so on."""
    if not is_composed(relationship):
        return 1
    # A composed name has the form r1.t1.r2.t2.r3... : k primitive
    # relationships interleaved with k-1 intermediate entities, i.e.
    # 2k-1 dot-separated segments.
    segments = relationship.split(COMPOSITION_SEPARATOR)
    return (len(segments) + 1) // 2
