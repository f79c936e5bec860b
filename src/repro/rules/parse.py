"""A surface syntax for rules (paper §2.5–2.6).

The paper writes rules as implications between template conjunctions::

    (x, ∈, AGE) => (x, >, 0)
    (x, in, EMPLOYEE) and (EMPLOYEE, EARNS, y) => (x, EARNS, y)
    (r, in, SYMMETRIC) and (a, r, b) => (b, r, a)

This module parses exactly that shape into :class:`~.rule.Rule`
objects, so integrity constraints and custom inference rules can be
written as text — the same notational convenience the query language
gets from :mod:`repro.query.parser` (whose lexical rules for entities,
variables, and aliases apply verbatim on both sides of ``=>``).

Guards can be attached with a trailing ``where`` clause::

    (s, r, t) and (t, r, u) => (s, r, u) where s != u
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..core.errors import ParseError, RuleError
from ..core.facts import Template, Variable
from ..query.ast import And, Atom, Formula
from ..query.parser import parse_formula
from .rule import Condition, Distinct, Rule

_ARROW = "=>"
_WHERE_RE = re.compile(r"\bwhere\b", re.IGNORECASE)
_GUARD_RE = re.compile(
    r"^\s*([A-Za-z_][\w]*|\S+?)\s*!=\s*([A-Za-z_][\w]*|\S+?)\s*$")


def _templates_of(text: str, side: str) -> Tuple[Template, ...]:
    formula: Formula = parse_formula(text)
    if isinstance(formula, Atom):
        return (formula.pattern,)
    if isinstance(formula, And) and all(
            isinstance(part, Atom) for part in formula.parts):
        return tuple(part.pattern for part in formula.parts)
    raise RuleError(
        f"rule {side} must be a conjunction of templates (the paper's"
        f" strictly conjunctive rules, §2.6); got: {formula}")


def _parse_guard(text: str) -> Condition:
    match = _GUARD_RE.match(text)
    if match is None:
        raise RuleError(
            f"unsupported guard {text.strip()!r}; guards have the form"
            " 'a != b' (comma-separated)")
    components = []
    for token in match.groups():
        if re.fullmatch(r"[a-z][a-zA-Z0-9_]*", token):
            components.append(Variable(token))
        else:
            components.append(token)
    return Distinct(components[0], components[1])


def parse_rule(text: str, name: str,
               is_constraint: bool = False) -> Rule:
    """Parse ``body => head [where guards]`` into a rule.

    Args:
        text: the rule text; both sides use the query language's
            template syntax (aliases like ``in`` for ``∈`` included).
        name: the rule's registry name (for ``include``/``exclude``).
        is_constraint: mark the rule as an integrity constraint (§2.5).

    Raises:
        RuleError / ParseError: on malformed rules (missing arrow,
        disjunctive sides, unsafe head variables, bad guards).
    """
    if text.count(_ARROW) != 1:
        raise RuleError(
            f"a rule needs exactly one {_ARROW!r} between body and head")
    body_text, head_text = text.split(_ARROW)

    guards: List[Condition] = []
    where_match = _WHERE_RE.search(head_text)
    if where_match is not None:
        guard_text = head_text[where_match.end():]
        head_text = head_text[:where_match.start()]
        for part in guard_text.split(","):
            if part.strip():
                guards.append(_parse_guard(part))

    return Rule(
        name=name,
        body=_templates_of(body_text, "body"),
        head=_templates_of(head_text, "head"),
        conditions=tuple(guards),
        description=f"user rule: {text.strip()}",
        is_constraint=is_constraint,
        text=text,
    )
