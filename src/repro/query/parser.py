"""Surface syntax for queries.

The paper writes queries in plain predicate notation; this parser
accepts the same shape as text::

    (JOHN, *, *)
    exists x: (x, in, BOOK) and (x, CITES, x) and (x, AUTHOR, y)
    (JOHN, LIKES, FELIX) and (FELIX, LIKES, JOHN)

Lexical rules:

* ``(c1, c2, c3)`` is a template; components are entities, variables,
  or ``*`` (a fresh anonymous variable per star, §4.1).
* identifiers starting with a lowercase letter are variables;
  everything else is an entity.  ``and`` / ``or`` / ``exists`` /
  ``forall`` are reserved (case-insensitive).
* the special entities may be written by glyph (``≺ ∈ ≈ ↔ ⊥ Δ ∇``) or
  by ASCII alias: ``ISA IN SYN INV CONTRA TOP BOTTOM``, and ``!= <= >=``
  for ``≠ ≤ ≥``.
* entities containing spaces, commas, or parentheses must be quoted:
  ``"$25,000"``.

Free variables are reported in first-appearance order, which fixes the
column order of the query's value.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import List, Optional, Tuple

from ..core.entities import (
    BOTTOM, CONTRA, GE, INV, ISA, LE, MEMBER, NE, SYN, TOP, validate_entity,
)
from ..core.errors import ParseError
from ..core.facts import Template, Variable
from .ast import And, Atom, Exists, ForAll, Formula, Or, Query

#: ASCII spellings accepted for the special entities.
ALIASES = {
    "ISA": ISA,
    "IN": MEMBER,
    "MEMBER": MEMBER,
    "SYN": SYN,
    "INV": INV,
    "CONTRA": CONTRA,
    "TOP": TOP,
    "BOTTOM": BOTTOM,
    "!=": NE,
    "<=": LE,
    ">=": GE,
}

_KEYWORDS = {"and", "or", "exists", "forall"}
_VARIABLE_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        ("(?:[^"\\]|\\.)*"     # 1: double-quoted entity
      | '(?:[^'\\]|\\.)*')     #    single-quoted entity
      | ([(),:]                # 2: punctuation
      | [^\s(),:'"]+)          #    bare word
      | \S                     # anything else: a quote never closed
    )
    """, re.VERBOSE)
_ESCAPE_RE = re.compile(r"\\(.)")

#: A token is a plain ``(text, position, quoted)`` tuple.
_Token = Tuple[str, int, bool]


def _tokenize(text: str) -> List[_Token]:
    """One ``finditer`` pass.  Every non-space character belongs to
    some alternative, so matches leave no gaps; the last alternative
    exists only to report where tokenizing stopped."""
    tokens: List[_Token] = []
    end = 0
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group == 2:
            tokens.append((match.group(2), match.start(2), False))
        elif group == 1:
            tokens.append((_ESCAPE_RE.sub(r"\1", match.group(1)[1:-1]),
                           match.start(1), True))
        else:
            raise ParseError(
                f"cannot tokenize at position {end}:"
                f" {text[end:].strip()[:20]!r}", end)
        end = match.end()
    return tokens


def _is_punct(token: Optional[_Token], text: str) -> bool:
    return token is not None and not token[2] and token[0] == text


class _Parser:
    def __init__(self, tokens: List[_Token], text: str):
        self.tokens = tokens
        self.text = text
        self.index = 0
        self.star_count = 0
        self.appearance_order: List[Variable] = []

    # ----------------------------------------------------------------
    # Token helpers
    # ----------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Optional[_Token]:
        target = self.index + offset
        if target < len(self.tokens):
            return self.tokens[target]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query", len(self.text))
        self.index += 1
        return token

    def _expect(self, text: str) -> None:
        found, position, quoted = self._next()
        if quoted or found != text:
            raise ParseError(
                f"expected {text!r}, found {found!r}"
                f" at position {position}", position)

    def _is_keyword(self, token: Optional[_Token], keyword: str) -> bool:
        return (token is not None and not token[2]
                and token[0].lower() == keyword)

    # ----------------------------------------------------------------
    # Grammar
    # ----------------------------------------------------------------
    def parse_formula(self) -> Formula:
        return self._disjunction()

    def _disjunction(self) -> Formula:
        parts = [self._conjunction()]
        while self._is_keyword(self._peek(), "or"):
            self._next()
            parts.append(self._conjunction())
        if len(parts) == 1:
            return parts[0]
        return Or(tuple(parts))

    def _conjunction(self) -> Formula:
        parts = [self._unit()]
        while self._is_keyword(self._peek(), "and"):
            self._next()
            parts.append(self._unit())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def _unit(self) -> Formula:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query", len(self.text))
        if self._is_keyword(token, "exists") or self._is_keyword(
                token, "forall"):
            quantifier = self._next()[0].lower()
            variables = self._variable_list()
            self._expect(":")
            # Quantifier scope extends as far right as possible, so
            # "exists x: A and B" quantifies over the conjunction.
            body = self.parse_formula()
            wrapper = Exists if quantifier == "exists" else ForAll
            for variable in reversed(variables):
                body = wrapper(variable, body)
            return body
        text, position, quoted = token
        if not quoted and text == "(":
            if self._looks_like_template():
                return Atom(self._template())
            self._next()
            inner = self.parse_formula()
            self._expect(")")
            return inner
        raise ParseError(
            f"expected a template, '(', or a quantifier; found"
            f" {text!r} at position {position}", position)

    def _variable_list(self) -> List[Variable]:
        variables = [self._variable()]
        while True:
            if _is_punct(self._peek(), ","):
                self._next()
                variables.append(self._variable())
            else:
                return variables

    def _variable(self) -> Variable:
        text, position, quoted = self._next()
        if quoted or not _VARIABLE_RE.match(text):
            raise ParseError(
                f"expected a variable (lowercase identifier), found"
                f" {text!r} at position {position}", position)
        if text in _KEYWORDS:
            raise ParseError(
                f"{text!r} is a reserved word at position"
                f" {position}", position)
        return Variable(text)

    def _looks_like_template(self) -> bool:
        """A '(' opens a template iff the next tokens have the shape
        ``( c , c , c )`` with single-token components."""
        def is_component(token: Optional[_Token]) -> bool:
            return token is not None and (
                token[2] or token[0] not in "(),:")

        return (is_component(self._peek(1)) and _is_punct(self._peek(2), ",")
                and is_component(self._peek(3))
                and _is_punct(self._peek(4), ",")
                and is_component(self._peek(5))
                and _is_punct(self._peek(6), ")"))

    def _template(self) -> Template:
        self._expect("(")
        source = self._component()
        self._expect(",")
        relationship = self._component()
        self._expect(",")
        target = self._component()
        self._expect(")")
        return Template(source, relationship, target)

    def _component(self):
        text, position, quoted = self._next()
        if quoted:
            return validate_entity(text)
        if text == "*":
            self.star_count += 1
            return Variable(f"_star{self.star_count}")
        if text.lower() in _KEYWORDS:
            raise ParseError(
                f"{text!r} is a reserved word at position {position}",
                position)
        # The ASCII aliases win over variable syntax in any case
        # (``in`` means ``∈``); quote an entity to escape them.
        if text.upper() in ALIASES:
            return ALIASES[text.upper()]
        if _VARIABLE_RE.match(text):
            variable = Variable(text)
            if variable not in self.appearance_order:
                self.appearance_order.append(variable)
            return variable
        entity = ALIASES.get(text, text)
        try:
            return validate_entity(entity)
        except Exception as error:
            raise ParseError(
                f"invalid entity {text!r} at position {position}:"
                f" {error}", position)


def parse_formula(text: str) -> Formula:
    """Parse a formula; raises :class:`ParseError` on bad syntax."""
    parser = _Parser(_tokenize(text), text)
    formula = parser.parse_formula()
    trailing = parser._peek()
    if trailing is not None:
        raise ParseError(
            f"unexpected trailing input {trailing[0]!r} at position"
            f" {trailing[1]}", trailing[1])
    return formula


def parse_query(text: str) -> Query:
    """Parse a query; free variables keep first-appearance order.

    Anonymous ``*`` variables are treated as existential: they do not
    become output columns (the paper's navigation tables key on the
    named structure of the template, not on star positions — see
    :mod:`repro.browse.navigation` for how stars are displayed).
    """
    parser = _Parser(_tokenize(text), text)
    formula = parser.parse_formula()
    trailing = parser._peek()
    if trailing is not None:
        raise ParseError(
            f"unexpected trailing input {trailing[0]!r} at position"
            f" {trailing[1]}", trailing[1])
    free = formula.free_variables()
    named = [v for v in parser.appearance_order if v in free]
    stars = sorted(
        (v for v in free if v.name.startswith("_star")),
        key=lambda v: v.name)
    return Query.of(formula, tuple(named) + tuple(stars))


#: Longest text :func:`parse_query_memo` keeps.  Anything longer is
#: parsed and returned, so a client sending distinct megabyte lines
#: pins nothing (the memo holds at most 1024 × this many characters of
#: text).
PARSE_MEMO_MAX_TEXT = 1024

_parse_remembered = lru_cache(maxsize=1024)(parse_query)


def parse_query_memo(text: str) -> Query:
    """:func:`parse_query` through a bounded memo keyed on the text as
    sent — two spellings are two entries.

    A parse depends on nothing but its text and a :class:`Query` is
    immutable, so no event can invalidate an entry; a
    :class:`~repro.core.errors.ParseError` is raised again on every
    call, never remembered.
    """
    if len(text) > PARSE_MEMO_MAX_TEXT:
        return parse_query(text)
    return _parse_remembered(text)


def parse_template(text: str) -> Template:
    """Parse a single template such as ``(JOHN, *, *)``."""
    parser = _Parser(_tokenize(text), text)
    parsed = parser._template()
    trailing = parser._peek()
    if trailing is not None:
        raise ParseError(
            f"unexpected trailing input {trailing[0]!r} at position"
            f" {trailing[1]}", trailing[1])
    return parsed
