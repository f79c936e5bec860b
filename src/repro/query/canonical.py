"""Canonical forms for conjunctive queries.

Probing (§5.2) explores a lattice of generalized queries wave by wave;
two different generalization paths frequently produce the *same* query
(generalize A then B ≡ generalize B then A).  To avoid evaluating
duplicates, queries are keyed by a canonical form: templates sorted,
variables renamed by order of appearance in the sorted form, with free
(output) variables kept distinct from existential ones.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core.facts import Component, Template, Variable

CanonicalForm = Tuple[Tuple[Tuple[str, str], ...], ...]


def _component_key(component: Component) -> Tuple[str, str]:
    if isinstance(component, Variable):
        return ("var", component.name)
    return ("ent", component)


def canonical_form(templates: Sequence[Template],
                   free: Sequence[Variable]) -> CanonicalForm:
    """A hashable key identifying a conjunctive query up to variable
    renaming and template order."""
    free_set = set(free)
    # First sort templates by their entity skeleton so renaming is
    # order-independent, then rename variables by first appearance.
    def skeleton(template: Template):
        return tuple(
            ("var-free",) if (isinstance(c, Variable) and c in free_set)
            else ("var",) if isinstance(c, Variable)
            else ("ent", c)
            for c in template)

    ordered = sorted(templates, key=lambda t: (skeleton(t),
                                               _raw_key(t)))
    names: Dict[Variable, str] = {}
    # Free variables canonicalize by their *position in the free list*
    # (output columns are ordered), existential ones by appearance.
    for index, variable in enumerate(free):
        names[variable] = f"F{index}"
    counter = 0
    rows = []
    for template in ordered:
        row = []
        for component in template:
            if isinstance(component, Variable):
                if component not in names:
                    names[component] = f"E{counter}"
                    counter += 1
                row.append(("var", names[component]))
            else:
                row.append(("ent", component))
        rows.append(tuple(row))
    return tuple(rows)


def _raw_key(template: Template):
    return tuple(_component_key(c) for c in template)
