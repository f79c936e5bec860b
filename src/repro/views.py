"""Named structured views over the loose heap (paper §6.1).

"Representation of information as an unstructured heap of facts …
should not prevent structured views of this information.  On the
contrary, using the standard query language, the user may view this
information as if it is structured according to different data models,
such as the relational or the functional."

A :class:`ViewCatalog` holds named view *definitions* — relational
(`relation(...)` specs), functional (one relationship as a function),
or plain queries — and materializes them on demand against the current
closure.  Views are definitions, not snapshots: re-materializing after
updates reflects the new facts, which is the §1 evolution story told
from the structured side.

Example::

    from repro import Database

    db = Database()
    db.add("JOHN", "EARNS", "$25000")
    db.views.define_function("salary", "EARNS")
    assert db.views.materialize("salary")("JOHN") == ("$25000",)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core.errors import QueryError

KIND_RELATION = "relation"
KIND_FUNCTION = "function"
KIND_QUERY = "query"


@dataclass(frozen=True)
class ViewDefinition:
    """One named view: its kind and the spec to materialize it."""

    name: str
    kind: str
    #: relation: (class_entity, ((rel, target_class), ...));
    #: function: relationship name; query: query text.
    spec: object

    def describe(self) -> str:
        if self.kind == KIND_RELATION:
            class_entity, columns = self.spec
            parts = ", ".join(f"{r} {t}" for r, t in columns)
            return f"relation({class_entity}, {parts})"
        if self.kind == KIND_FUNCTION:
            return f"function({self.spec})"
        return f"query[{self.spec}]"


class ViewCatalog:
    """Named views over one database.

    A database keeps only the definitions; ``db.views`` binds a catalog
    to them and to the database on each access.  The database holds no
    catalog, so no database — and no published snapshot — is a cycle
    that only the cyclic collector could free: a retired snapshot is
    freed by refcount the moment its last reader lets go.
    """

    def __init__(self, database,
                 definitions: Optional[Dict[str, ViewDefinition]] = None):
        self._database = database
        self._definitions: Dict[str, ViewDefinition] = \
            {} if definitions is None else definitions

    # ------------------------------------------------------------------
    # Definition
    # ------------------------------------------------------------------
    def _register(self, definition: ViewDefinition) -> None:
        if definition.name in self._definitions:
            raise QueryError(f"view {definition.name!r} already defined"
                             " (undefine it first)")
        self._definitions[definition.name] = definition

    def define_relation(self, name: str, class_entity: str,
                        *columns: Tuple[str, str]) -> None:
        """A named §6.1 ``relation(...)`` view."""
        self._register(ViewDefinition(
            name=name, kind=KIND_RELATION,
            spec=(class_entity, tuple(columns))))

    def define_function(self, name: str, relationship: str) -> None:
        """A named functional-model view of one relationship."""
        self._register(ViewDefinition(
            name=name, kind=KIND_FUNCTION, spec=relationship))

    def define_query(self, name: str, text: str) -> None:
        """A named standard query (its value set is the view)."""
        from .query.parser import parse_query

        parse_query(text)  # validate eagerly
        self._register(ViewDefinition(
            name=name, kind=KIND_QUERY, spec=text))

    def undefine(self, name: str) -> None:
        if name not in self._definitions:
            raise QueryError(f"no view named {name!r}")
        del self._definitions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._definitions

    def names(self) -> List[str]:
        return sorted(self._definitions)

    def definition(self, name: str) -> ViewDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            raise QueryError(
                f"no view named {name!r} (known: {self.names()})")

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, name: str):
        """Evaluate the view against the *current* closure.

        Returns a :class:`~repro.operators.ops.RelationTable`, a
        :class:`~repro.operators.ops.FunctionView`, or a value set,
        depending on the view's kind.
        """
        definition = self.definition(name)
        if definition.kind == KIND_RELATION:
            class_entity, columns = definition.spec
            return self._database.relation(class_entity, *columns)
        if definition.kind == KIND_FUNCTION:
            return self._database.function(definition.spec)
        return self._database.query(definition.spec)

    def render(self, name: str) -> str:
        """A text rendering of the materialized view."""
        definition = self.definition(name)
        materialized = self.materialize(name)
        if definition.kind == KIND_RELATION:
            return materialized.render()
        if definition.kind == KIND_FUNCTION:
            lines = [f"{definition.spec}:"]
            lines.extend(
                f"  {entity} -> {', '.join(images)}"
                for entity, images in materialized.items())
            return "\n".join(lines)
        rows = sorted(materialized)
        if not rows:
            return "(empty)"
        return "\n".join(", ".join(row) for row in rows)

    def render_catalog(self) -> str:
        """One line per defined view."""
        if not self._definitions:
            return "(no views defined)"
        return "\n".join(
            f"  {name}: {self._definitions[name].describe()}"
            for name in self.names())
