"""Browsing by navigation (paper §4.1).

"The process of navigation is based on template retrieval.  These
primitive queries allow the user to examine the neighborhood of a
particular entity, pick an entity in that neighborhood, retrieve its
own neighborhood, and so on."

A navigation query is a single template, written with ``*`` for "all
independent variable names".  Results are grouped the way the paper's
tables are: one column per relationship, targets (or sources, or
source–target pairs) listed beneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.entities import MEMBER
from ..core.facts import Fact, Template, Variable
from ..obs import telemetry as _obs
from ..virtual.computed import FactView
from ..query.parser import parse_template


def _star(index: int) -> Variable:
    return Variable(f"_star{index}")


def star_template(source: Optional[str] = None,
                  relationship: Optional[str] = None,
                  target: Optional[str] = None) -> Template:
    """Build a navigation template; ``None`` positions become stars."""
    components = []
    for index, value in enumerate((source, relationship, target)):
        components.append(_star(index + 1) if value is None else value)
    return Template(*components)


@dataclass
class NavigationResult:
    """The neighborhood matched by one navigation template.

    ``groups`` maps each relationship to the list of entities (or
    entity pairs) it relates, mirroring the paper's column-per-
    relationship tables.  ``facts`` keeps the raw matches for callers
    that want them.
    """

    pattern: Template
    facts: List[Fact]
    groups: "Dict[str, List[Union[str, Tuple[str, str]]]]" = field(
        default_factory=dict)

    #: Which component of each fact the group lists: "target",
    #: "source", "relationship", or "pair".
    grouped_by: str = "target"

    def relationships(self) -> List[str]:
        """Column order: ``∈`` first (as in the paper's tables), then
        the rest alphabetically."""
        keys = sorted(self.groups)
        if MEMBER in self.groups:
            keys.remove(MEMBER)
            keys.insert(0, MEMBER)
        return keys

    def entities(self) -> List[str]:
        """Every entity appearing in the result — the candidates for
        the next navigation step."""
        seen = []
        for fact in self.facts:
            for entity in fact:
                if entity not in seen:
                    seen.append(entity)
        return seen

    def is_empty(self) -> bool:
        return not self.facts

    def render(self) -> str:
        from .render import render_navigation
        return render_navigation(self)


def navigate(view: FactView,
             pattern: Union[str, Template]) -> NavigationResult:
    """Evaluate a navigation (star-template) query against a view.

    The template may be given as text (``"(JOHN, *, *)"``) or as a
    :class:`~repro.core.facts.Template`.
    """
    if isinstance(pattern, str):
        pattern = parse_template(pattern)
    observing = _obs.ENABLED
    navigate_span = (_obs.TELEMETRY.span("browse.navigate",
                                      pattern=str(pattern))
                     if observing else _obs.NULL_SPAN)
    with navigate_span as span:
        if observing:
            _obs.TELEMETRY.count("browse.navigations")
        facts = sorted(set(view.match(pattern)))
        span.set(facts=len(facts))

    source_free = isinstance(pattern.source, Variable)
    relationship_free = isinstance(pattern.relationship, Variable)
    target_free = isinstance(pattern.target, Variable)

    groups: Dict[str, List[Union[str, Tuple[str, str]]]] = {}
    if relationship_free and source_free and target_free:
        grouped_by = "pair"
        for fact in facts:
            groups.setdefault(fact.relationship, []).append(
                (fact.source, fact.target))
    elif relationship_free and target_free:
        grouped_by = "target"
        for fact in facts:
            groups.setdefault(fact.relationship, []).append(fact.target)
    elif relationship_free and source_free:
        grouped_by = "source"
        for fact in facts:
            groups.setdefault(fact.relationship, []).append(fact.source)
    elif relationship_free:
        # (LEOPOLD, *, MOZART): the associations between two entities.
        grouped_by = "relationship"
        for fact in facts:
            groups.setdefault(fact.relationship, [])
    elif source_free and target_free:
        grouped_by = "pair"
        for fact in facts:
            groups.setdefault(fact.relationship, []).append(
                (fact.source, fact.target))
    elif target_free:
        grouped_by = "target"
        for fact in facts:
            groups.setdefault(fact.relationship, []).append(fact.target)
    elif source_free:
        grouped_by = "source"
        for fact in facts:
            groups.setdefault(fact.relationship, []).append(fact.source)
    else:
        grouped_by = "relationship"
        for fact in facts:
            groups.setdefault(fact.relationship, [])
    return NavigationResult(pattern=pattern, facts=facts,
                            groups=groups, grouped_by=grouped_by)


class NavigationSession:
    """An interactive navigation: a history of neighborhood queries.

    The paper's example session (§4.1)::

        session.visit("JOHN")          # (JOHN, *, *)
        session.visit("PC#9-WAM")      # (PC#9-WAM, *, *)
        session.between("LEOPOLD", "MOZART")
    """

    def __init__(self, view: FactView):
        self.view = view
        self.history: List[NavigationResult] = []

    @property
    def current(self) -> Optional[NavigationResult]:
        return self.history[-1] if self.history else None

    def _navigate(self, pattern: Union[str, Template]) -> NavigationResult:
        result = navigate(self.view, pattern)
        self.history.append(result)
        return result

    def visit(self, entity: str) -> NavigationResult:
        """The outgoing neighborhood ``(entity, *, *)``."""
        return self._navigate(star_template(source=entity))

    def incoming(self, entity: str) -> NavigationResult:
        """The incoming neighborhood ``(*, *, entity)``."""
        return self._navigate(star_template(target=entity))

    def between(self, source: str, target: str) -> NavigationResult:
        """All associations ``(source, *, target)`` — with composition
        enabled this includes the composed paths (§4.1)."""
        return self._navigate(star_template(source=source, target=target))

    def query(self, pattern: Union[str, Template]) -> NavigationResult:
        """An arbitrary navigation template."""
        return self._navigate(pattern)

    def back(self) -> Optional[NavigationResult]:
        """Forget the latest step and return the one before it."""
        if self.history:
            self.history.pop()
        return self.current
