"""Browsing: navigation (§4) and probing with automatic retraction (§5).

The paper's principal retrieval method for an unorganized heap:
*navigation* iterates neighborhood (star-template) queries, rendering
each answer as the grouped two-way table of §4.1; *probing* evaluates
a query and, on failure, automatically retries minimally broader
versions of it — the §5.2 wave process over the generalization
hierarchy — presenting the successes as a menu.

Example::

    from repro import Database

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    db.add("EMPLOYEE", "EARNS", "SALARY")
    table = db.navigate("(JOHN, *, *)").render()     # §4.1 table
    assert "EMPLOYEE" in table
    outcome = db.probe("(JOHN, OWNS, z)")            # §5.2 retraction
    assert not outcome.succeeded
"""

from .navigation import (
    NavigationResult,
    NavigationSession,
    navigate,
    star_template,
)
from .probe import GeneralizationHierarchy
from .render import format_columns, render_navigation, render_relation_table
from .retraction import (
    ConjunctiveQuery,
    ProbeResult,
    RetractedQuery,
    RetractionStep,
    RetractionSuccess,
    Wave,
    probe,
    retraction_set,
)

__all__ = [
    "NavigationResult", "NavigationSession", "navigate", "star_template",
    "GeneralizationHierarchy", "format_columns", "render_navigation",
    "render_relation_table", "ConjunctiveQuery", "ProbeResult",
    "RetractedQuery", "RetractionStep", "RetractionSuccess", "Wave",
    "probe", "retraction_set",
]
