"""Browsing by probing: automatic retraction (paper §5).

"Every query may be regarded as a request to the database to 'zoom in'
on particular data.  The failure of a query can then be attributed to
'overzooming' ... When a query fails we automatically attempt its
retraction set."

The mechanics implemented here, each mapped to its paragraph in §5:

* the **retraction set** of a query — all queries minimally broader
  than it (one entity occurrence replaced by one minimal
  generalization);
* **weak templates** — templates composed entirely of variables and
  ``Δ``/``∇`` are generalized by deleting them altogether;
* the **wave process** — when every query of a retraction set fails,
  each failed query is retracted in turn, one breadth level per wave,
  "until some retrieval is successful (or it is abandoned by the
  user)";
* **critical failures** — a failed query all of whose retractions
  succeed isolates exactly where the database cannot satisfy the user;
* **"no such database entities"** — a failing query with no broader
  queries left names entities the database has never seen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..core.entities import BOTTOM, TOP
from ..core.errors import QueryError
from ..core.facts import Template, Variable
from ..obs import telemetry as _obs
from ..query.ast import And, Atom, Exists, Formula, Query, exists
from ..query.canonical import canonical_form
from ..query.evaluate import Evaluator
from ..query.parser import parse_query
from .lattice import GeneralizationLattice

#: Safety valve on the wave process: the lattice above a query is
#: finite but can be wide; probing past this many waves almost always
#: means the query has drifted into meaninglessness.
DEFAULT_MAX_WAVES = 25

#: Approximate process-wide probe total (exact single-threaded; a
#: plain int bump, so concurrent probes may undercount — nothing
#: depends on it being exact).
PROBE_COUNTERS = {
    "probes": 0,
    # There is no menu cache.  ``benchmarks/macro`` (which a PR may not
    # edit) still subtracts these two; literal zeros until ROADMAP
    # item 1 re-bases the benchmark contract.
    "menu_hits": 0,
    "menu_misses": 0,
}


@dataclass(frozen=True)
class ConjunctiveQuery:
    """The query class probing retracts: a conjunction of templates
    with designated output (free) variables."""

    templates: Tuple[Template, ...]
    free: Tuple[Variable, ...]

    @staticmethod
    def from_query(query: Union[Query, str]) -> "ConjunctiveQuery":
        """Extract the conjunctive core of a query.

        Accepts text or a :class:`Query` whose formula is a template,
        a conjunction of templates, or either wrapped in ∃ quantifiers.
        """
        if isinstance(query, str):
            query = parse_query(query)
        formula: Formula = query.formula
        while isinstance(formula, Exists):
            formula = formula.body
        if isinstance(formula, Atom):
            templates: Tuple[Template, ...] = (formula.pattern,)
        elif isinstance(formula, And) and all(
                isinstance(p, Atom) for p in formula.parts):
            templates = tuple(p.pattern for p in formula.parts)
        else:
            raise QueryError(
                "probing retracts conjunctive queries (conjunctions of"
                f" templates, possibly ∃-quantified); got: {formula}")
        return ConjunctiveQuery(templates=templates, free=query.variables)

    def to_query(self) -> Query:
        """Back to a :class:`Query`, ∃-quantifying non-output variables."""
        formula: Formula = And(tuple(Atom(t) for t in self.templates))
        all_vars = set()
        for template in self.templates:
            all_vars.update(template.variable_set())
        inner = sorted(all_vars - set(self.free), key=lambda v: v.name)
        if inner:
            formula = exists(inner, formula)
        return Query.of(formula, self.free)

    def __str__(self) -> str:
        body = " ∧ ".join(repr(t) for t in self.templates)
        if not self.free:
            return body
        names = ", ".join(v.name for v in self.free)
        return f"Q({names}) = {body}"


@dataclass(frozen=True)
class RetractionStep:
    """One generalization applied to a query."""

    kind: str  # "replace" or "delete"
    template_index: int
    position: Optional[str]  # source / relationship / target
    old: Union[Template, str]
    new: Optional[str]

    def describe(self) -> str:
        if self.kind == "delete":
            return f"without {self.old!r}"
        return f"{self.new} instead of {self.old}"


@dataclass(frozen=True)
class RetractedQuery:
    """A query in the retraction lattice, with the steps that led to it."""

    query: ConjunctiveQuery
    path: Tuple[RetractionStep, ...]

    def describe(self) -> str:
        return ", ".join(step.describe() for step in self.path)


def _is_weak(template: Template) -> bool:
    """Weak templates "represent weak restrictions, which frequently
    are meaningless" (§5.2): every component is a variable, Δ, or ∇."""
    return all(
        isinstance(c, Variable) or c in (TOP, BOTTOM) for c in template)


def _replace_position(template: Template, position: int,
                      entity: str) -> Template:
    components = list(template)
    components[position] = entity
    return Template(*components)


#: Relationships whose templates do not broaden by source
#: specialization: rule (1) quantifies over R_i, and no rule derives
#: ``(s', ∈, c)`` (or the like) from ``(s, ∈, c)`` with ``s' ≺ s``.
#: ``≺`` itself *does* specialize soundly (via transitivity), so it is
#: not listed.
_NO_SOURCE_SPECIALIZATION = frozenset({"∈", "≈", "↔", "⊥"})


def _replacements(template: Template, position: int,
                  hierarchy: GeneralizationLattice) -> FrozenSet[str]:
    """The minimal replacements broadening one ground position.

    Source entities are replaced by minimal *specializations* (rule (1)
    gives ``(s,r,t) ⇒ (s',r,t)`` for ``s' ≺ s``); relationship and
    target entities by minimal *generalizations* — exactly the §5.2
    worked example: FRESHMAN instead of STUDENT, LIKE instead of LOVE,
    CHEAP instead of FREE, Δ instead of COSTS.
    """
    component = template[position]
    if position == 0:
        relationship = template.relationship
        if (isinstance(relationship, str)
                and relationship in _NO_SOURCE_SPECIALIZATION):
            return frozenset()
        return hierarchy.minimal_specializations(component)
    return hierarchy.minimal_generalizations(component)


def retraction_set(
        retracted: RetractedQuery,
        hierarchy: GeneralizationLattice) -> List[RetractedQuery]:
    """All queries minimally broader than ``retracted.query`` (§5.1).

    Weak templates are generalized by deletion; other templates by
    replacing one entity occurrence with one minimal replacement in the
    broadening direction of its position (source ↓, relationship ↑,
    target ↑).  Entities unknown to the database are never replaced
    (§5.2).
    """
    query = retracted.query
    results: List[RetractedQuery] = []
    position_names = ("source", "relationship", "target")
    for index, template in enumerate(query.templates):
        if _is_weak(template):
            if len(query.templates) == 1:
                continue  # deleting the last template leaves no query
            remaining = (query.templates[:index]
                         + query.templates[index + 1:])
            remaining_vars: Set[Variable] = set()
            for other in remaining:
                remaining_vars.update(other.variable_set())
            new_free = tuple(v for v in query.free if v in remaining_vars)
            step = RetractionStep(
                kind="delete", template_index=index,
                position=None, old=template, new=None)
            results.append(RetractedQuery(
                query=ConjunctiveQuery(remaining, new_free),
                path=retracted.path + (step,)))
            continue
        for position, component in enumerate(template):
            if isinstance(component, Variable):
                continue
            for replacement in sorted(
                    _replacements(template, position, hierarchy)):
                new_template = _replace_position(
                    template, position, replacement)
                new_templates = (query.templates[:index]
                                 + (new_template,)
                                 + query.templates[index + 1:])
                step = RetractionStep(
                    kind="replace", template_index=index,
                    position=position_names[position],
                    old=component, new=replacement)
                results.append(RetractedQuery(
                    query=ConjunctiveQuery(new_templates, query.free),
                    path=retracted.path + (step,)))
    return results


@dataclass
class RetractionSuccess:
    """A broader query that succeeded, with its value."""

    retracted: RetractedQuery
    value: Set[tuple]

    def describe(self) -> str:
        return self.retracted.describe()


@dataclass
class Wave:
    """One breadth level of the retraction process."""

    number: int
    attempted: List[RetractedQuery]
    successes: List[RetractionSuccess]
    #: plan executions the candidates cost (one per variable skeleton
    #: on the compiled engine, one per candidate on the reference)
    joins: int = 0

    @property
    def all_succeeded(self) -> bool:
        return (bool(self.attempted)
                and len(self.successes) == len(self.attempted))


@dataclass
class ProbeResult:
    """Outcome of probing a query (§5.2)."""

    original: ConjunctiveQuery
    succeeded: bool
    value: Set[tuple] = field(default_factory=set)
    waves: List[Wave] = field(default_factory=list)
    exhausted: bool = False
    unknown_entities: Tuple[str, ...] = ()
    #: unknown entity -> close database-entity names ("did you mean").
    spelling_suggestions: Dict[str, Tuple[str, ...]] = field(
        default_factory=dict)

    @property
    def successes(self) -> List[RetractionSuccess]:
        """The successes of the terminating wave (empty if none)."""
        if not self.waves:
            return []
        return self.waves[-1].successes

    @property
    def critical(self) -> bool:
        """True when the original query failed but every query in its
        retraction set succeeded — the paper's "critical point", where
        each condition alone is satisfiable but their conjunction is
        not."""
        return (not self.succeeded and bool(self.waves)
                and self.waves[0].all_succeeded)

    def select(self, choice: int) -> Set[tuple]:
        """The value of menu entry ``choice`` (1-based, as displayed)."""
        return self.successes[choice - 1].value

    def menu(self) -> str:
        """The paper's retraction menu (§5.2)."""
        if self.succeeded:
            return "Query succeeded."
        lines = ["Query failed. Retrying", ""]
        if self.successes:
            for number, success in enumerate(self.successes, start=1):
                lines.append(f"{number}. Success with {success.describe()}")
            lines.append("")
            lines.append("You may select")
        elif self.unknown_entities:
            lines.append("No such database entities: "
                         + ", ".join(self.unknown_entities))
            for unknown in self.unknown_entities:
                close = self.spelling_suggestions.get(unknown)
                if close:
                    lines.append(
                        f"  (did you mean {', '.join(close)}?)")
        else:
            lines.append("No broader query succeeds.")
        return "\n".join(lines)


def probe(evaluator: Evaluator, query: Union[Query, str, ConjunctiveQuery],
          hierarchy: GeneralizationLattice,
          max_waves: int = DEFAULT_MAX_WAVES) -> ProbeResult:
    """Evaluate a query; on failure, run the automatic retraction
    process until some retrieval is successful or the lattice is
    exhausted (§5.2)."""
    if not isinstance(query, ConjunctiveQuery):
        query = ConjunctiveQuery.from_query(query)

    PROBE_COUNTERS["probes"] += 1
    if not _obs.ENABLED:
        return _probe_inner(evaluator, query, hierarchy, max_waves)
    started = time.perf_counter()
    telemetry = _obs.TELEMETRY
    with telemetry.span("browse.probe", query=str(query)) as span:
        telemetry.count("browse.probes")
        result = _probe_inner(evaluator, query, hierarchy, max_waves)
        span.set(succeeded=result.succeeded, waves=len(result.waves))
        attempted = sum(len(w.attempted) for w in result.waves)
        successes = sum(len(w.successes) for w in result.waves)
        joins = sum(w.joins for w in result.waves)
        if result.waves:
            telemetry.count("browse.probe.waves", len(result.waves))
            telemetry.count("browse.probe.retractions", attempted)
            telemetry.count("browse.probe.joins", joins)
            telemetry.count("browse.probe.successes", successes)
        _obs.LAST_REQUEST.probe = {
            "query": str(query),
            "succeeded": result.succeeded,
            "waves": len(result.waves),
            "attempted": attempted,
            "joins": joins,
            "successes": successes,
            "seconds": time.perf_counter() - started,
        }
    return result


def _probe_inner(evaluator: Evaluator, query: ConjunctiveQuery,
                 hierarchy: GeneralizationLattice,
                 max_waves: int) -> ProbeResult:
    """Set-at-a-time wave expansion.

    Each wave is generated whole, deduped against every earlier wave by
    canonical form, and handed to the evaluator whole
    (:meth:`~repro.query.evaluate.Evaluator.evaluate_wave`): the
    compiled engine answers it with one join per variable skeleton —
    the candidates are its input rows — the reference engine one
    candidate at a time.  Successes and failures are recorded in
    generation order either way; a deadline that expires inside a wave
    raises, so a menu is never partial.
    """
    value = evaluator.evaluate(query.to_query())
    if value:
        return ProbeResult(original=query, succeeded=True, value=value)

    result = ProbeResult(original=query, succeeded=False)
    seen = {canonical_form(query.templates, query.free)}
    frontier = [RetractedQuery(query=query, path=())]
    wave_number = 0
    while frontier and wave_number < max_waves:
        wave_number += 1
        attempted: List[RetractedQuery] = []
        for failed in frontier:
            for candidate in retraction_set(failed, hierarchy):
                key = canonical_form(candidate.query.templates,
                                     candidate.query.free)
                if key not in seen:
                    seen.add(key)
                    attempted.append(candidate)
        if not attempted:
            result.exhausted = True
            result.unknown_entities = _unknown_entities(query, hierarchy)
            for unknown in result.unknown_entities:
                close = hierarchy.closest_known(unknown)
                if close:
                    result.spelling_suggestions[unknown] = tuple(close)
            break
        values, joins = evaluator.evaluate_wave(
            [candidate.query for candidate in attempted])
        successes: List[RetractionSuccess] = []
        failures: List[RetractedQuery] = []
        for candidate, candidate_value in zip(attempted, values):
            if candidate_value:
                successes.append(RetractionSuccess(
                    retracted=candidate, value=candidate_value))
            else:
                failures.append(candidate)
        result.waves.append(Wave(number=wave_number, attempted=attempted,
                                 successes=successes, joins=joins))
        if successes:
            return result
        frontier = failures
    if frontier and wave_number >= max_waves:
        result.exhausted = False  # abandoned, not exhausted
    return result


def reference_probe(evaluator: Evaluator,
                    query: Union[Query, str, ConjunctiveQuery],
                    hierarchy,
                    max_waves: int = DEFAULT_MAX_WAVES) -> ProbeResult:
    """The original candidate-at-a-time wave process, kept verbatim as
    the oracle for the probe-equivalence suite: one evaluation per
    candidate, no deadline checkpoints."""
    if not isinstance(query, ConjunctiveQuery):
        query = ConjunctiveQuery.from_query(query)
    return _reference_probe_inner(evaluator, query, hierarchy, max_waves)


def _reference_probe_inner(evaluator: Evaluator, query: ConjunctiveQuery,
                           hierarchy, max_waves: int) -> ProbeResult:
    value = evaluator.evaluate(query.to_query())
    if value:
        return ProbeResult(original=query, succeeded=True, value=value)

    result = ProbeResult(original=query, succeeded=False)
    seen = {canonical_form(query.templates, query.free)}
    frontier = [RetractedQuery(query=query, path=())]
    wave_number = 0
    while frontier and wave_number < max_waves:
        wave_number += 1
        attempted: List[RetractedQuery] = []
        for failed in frontier:
            for candidate in retraction_set(failed, hierarchy):
                key = canonical_form(candidate.query.templates,
                                     candidate.query.free)
                if key not in seen:
                    seen.add(key)
                    attempted.append(candidate)
        if not attempted:
            result.exhausted = True
            result.unknown_entities = _unknown_entities(query, hierarchy)
            result.spelling_suggestions = {
                unknown: tuple(hierarchy.closest_known(unknown))
                for unknown in result.unknown_entities
                if hierarchy.closest_known(unknown)
            }
            break
        successes: List[RetractionSuccess] = []
        failures: List[RetractedQuery] = []
        for candidate in attempted:
            candidate_value = evaluator.evaluate(candidate.query.to_query())
            if candidate_value:
                successes.append(RetractionSuccess(
                    retracted=candidate, value=candidate_value))
            else:
                failures.append(candidate)
        result.waves.append(Wave(number=wave_number, attempted=attempted,
                                 successes=successes))
        if successes:
            return result
        frontier = failures
    if frontier and wave_number >= max_waves:
        result.exhausted = False  # abandoned, not exhausted
    return result


def _unknown_entities(query: ConjunctiveQuery,
                      hierarchy: GeneralizationLattice) -> Tuple[str, ...]:
    """Entities of the original query the database has never seen —
    the diagnosis behind "no such database entities" (§5.2)."""
    unknown: List[str] = []
    for template in query.templates:
        for component in template:
            if isinstance(component, Variable):
                continue
            if not hierarchy.knows(component) and component not in unknown:
                unknown.append(component)
    return tuple(unknown)
