"""Lowering formulas to set-at-a-time plans.

The reference evaluator (:mod:`repro.query.evaluate`) is
tuple-at-a-time: it re-ranks the remaining conjuncts and allocates a
binding dict for *every partial binding*.  This module performs the
planning work **once**: a :class:`~repro.query.ast.Query` is lowered
into a tree of plan operators —

* :class:`AtomJoin` — index-backed scan / hash join for one template,
* :class:`Pipeline` — a conjunction, children in greedy selectivity
  order (with a cheap adaptive re-order at run time),
* :class:`Union` — a disjunction with per-input-row deduplication,
* :class:`SemiJoin` — ``∃`` as a semi-join on the distinct projection
  of the input,
* :class:`ForAllProbe` — ``∀`` as an anti-probe of the active domain,
  chunked so failed rows drop out early —

which :mod:`repro.query.exec` then runs over *binding tables* (columnar
tuples of entity ids) instead of per-row dicts.

The join order inside each :class:`Pipeline` is chosen here from one
:class:`~repro.query.planner.Estimates` — the same estimator the
reference engine consults per binding — so both engines attack a
conjunction the same way; the compiled engine just decides once, and
asks the view for each distinct atom's count once.
Quantifier deferral (satellite of the same planner) applies identically:
a part whose free variables are not yet generated sorts after every
generator.

A plan is lowered per evaluation and kept nowhere: its estimates and
provably-empty hints are those of the view it is about to run on.

Example::

    from repro import Database
    from repro.query.compile import compile_query
    from repro.query.parser import parse_query

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    plan = compile_query(parse_query("(x, ∈, EMPLOYEE)"), db.view())
    assert "atom-join" in plan.describe()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Set, Tuple, Union as TUnion

from ..core.errors import QueryError
from ..core.facts import Variable
from ..virtual.computed import FactView
from .ast import And, Atom, Exists, ForAll, Formula, Or, Query
from .planner import Estimates


class PlanNode:
    """Base class of plan operators.

    Every node carries its source ``formula``, the compile-time row
    estimate ``est`` (the planner's :func:`estimate_cost` at lowering
    time — per *input row*, like the reference engine's per-binding
    estimate), and an ``op`` name for rendering and stats keys.
    """

    op = "plan"
    formula: Formula
    est: float

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    @property
    def label(self) -> str:
        return f"{self.op} {self.formula}"

    def walk(self, depth: int = 0) -> Iterator[Tuple["PlanNode", int]]:
        """This node and all descendants, preorder with depths."""
        yield self, depth
        for child in self.children():
            yield from child.walk(depth + 1)


@dataclass
class AtomJoin(PlanNode):
    """Join the input table with one template's matches.

    At run time the executor groups input rows by their values for the
    template's bound variables, resolves the right positional index
    handle once, and probes it once per *distinct* key — the batch
    analogue of the reference engine's per-binding
    ``view.solutions(pattern, binding)``.
    """

    formula: Atom
    est: float
    #: Set at lowering time when the view has exact counts and this
    #: template provably matches nothing — zero stored facts and no
    #: virtual relation handles it.  Substitution only restricts a
    #: match set, so the hint holds for every runtime key and the
    #: executor emits the empty table without probing.
    empty_hint: bool = False
    #: Per-generation interned ground constants
    #: (:class:`AtomIdAnnotation`), bound by the executor the first
    #: time this node runs (a ``∀`` body runs once per domain chunk)
    #: and validated there by generation and relations identity — a
    #: cache, never a correctness requirement.
    id_ann: object = field(default=None, repr=False, compare=False)
    op = "atom-join"

    @property
    def label(self) -> str:
        suffix = "   [provably empty]" if self.empty_hint else ""
        return f"{self.op} {self.formula}{suffix}"


@dataclass
class Pipeline(PlanNode):
    """A conjunction: children run left to right over the growing
    binding table.  The order is fixed here (greedy, cheapest first,
    deferred quantifiers last); the executor re-ranks the remaining
    children only when a child's actual fanout diverges more than 10×
    from its estimate."""

    formula: And
    parts: Tuple[PlanNode, ...]
    est: float
    op = "pipeline"

    def children(self) -> Tuple[PlanNode, ...]:
        return self.parts

    @property
    def label(self) -> str:
        return f"{self.op} (∧, {len(self.parts)} parts)"


@dataclass
class Union(PlanNode):
    """A disjunction: each branch runs over the full input table and
    the outputs are merged with per-input-row deduplication on the
    disjunction's free variables (the reference engine's ``seen`` set,
    batched)."""

    formula: Or
    branches: Tuple[PlanNode, ...]
    est: float
    op = "union"

    def children(self) -> Tuple[PlanNode, ...]:
        return self.branches

    @property
    def label(self) -> str:
        return f"{self.op} (∨, {len(self.branches)} branches)"


@dataclass
class SemiJoin(PlanNode):
    """``(∃x) A`` — run the body over the *distinct projection* of the
    input onto the body's outer variables, then join the witnesses
    back.  An outer binding of the quantified variable is shadowed
    inside and restored in the output, exactly as in the reference
    engine."""

    formula: Exists
    body: PlanNode
    est: float
    op = "semi-join"

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.body,)

    @property
    def label(self) -> str:
        return f"{self.op} (∃{self.formula.variable.name})"


@dataclass
class ForAllProbe(PlanNode):
    """``(∀x) A`` — an anti-probe: for each surviving distinct input
    projection, the body must succeed for *every* entity of the active
    domain.  The domain is probed in chunks so rows that already failed
    stop paying for the rest of the scan."""

    formula: ForAll
    body: PlanNode
    est: float
    op = "forall-probe"

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.body,)

    @property
    def label(self) -> str:
        return f"{self.op} (∀{self.formula.variable.name})"


@dataclass
class CompiledPlan:
    """A lowered query: the operator tree plus the output tuple order,
    and the estimator that ordered it — the executor's run-time
    estimates (the conjunct trace, the adaptive re-order) are
    arithmetic on the counts lowering already asked for."""

    query: Query
    root: PlanNode
    estimates: Estimates = field(repr=False, compare=False)

    def walk(self) -> Iterator[Tuple[PlanNode, int]]:
        return self.root.walk()

    def describe(self) -> str:
        """Human-readable plan tree with compile-time estimates."""
        lines = [f"compiled plan: {self.query}"]
        for node, depth in self.walk():
            lines.append("  " * (depth + 1)
                         + f"{node.label}   [est {node.est:.1f}]")
        return "\n".join(lines)


class AtomIdAnnotation:
    """One AtomJoin's ground constants interned against one generation,
    and the computed relations they trigger.

    ``ground[p]`` is ``None`` for variable positions, else
    ``(name, base id or None)`` — ``None`` id meaning the generation
    never saw the constant, so it can only match through the overlay or
    a virtual relation.  ``triggers`` holds, per relation of
    ``relations`` (a registry's, in order), which positions hold a
    ground name its :attr:`~repro.virtual.computed.ComputedRelation.TRIGGERS`
    declares — such a relation is triggered for every key — or ``None``
    for a relation that declares none, which is asked for every key;
    ``every_key`` says some relation is.  Bound-variable positions are
    tested per key in id space by the executor.  Codec-independent — no
    scratch ids — so one annotation is safely shared across threads and
    executions over the same generation and relations.  With no
    generation (a store whose ids are its names) each constant is its
    own id.
    """

    __slots__ = ("generation", "ground", "relations", "triggers", "every_key")


def bind_atom_ids(pattern, generation, relations) -> AtomIdAnnotation:
    """Intern one template's ground constants against ``generation``
    (``None``: the identity) and mark the ground triggers of
    ``relations``."""
    ground: List = [None, None, None]
    for p, component in enumerate(pattern):
        if not isinstance(component, Variable):
            ground[p] = (component, component if generation is None
                         else generation.interner.id_of(component))
    ann = AtomIdAnnotation()
    ann.generation = generation
    ann.ground = tuple(ground)
    ann.relations = relations
    ann.triggers, ann.every_key = [], False
    s, r, t = [g and g[0] for g in ground]     # a variable: None
    for relation in relations:
        names = relation.TRIGGERS
        marked = None if names is None else (
            s in names[0], r in names[1], t in names[2])
        ann.triggers.append(marked)
        ann.every_key = ann.every_key or marked is None or True in marked
    return ann


def compile_query(query: TUnion[str, Query],
                  view: FactView) -> CompiledPlan:
    """Lower a query to a :class:`CompiledPlan` against ``view``.

    Lowering never touches the data (beyond the planner's index-size
    estimates) and never raises on unsafe formulas — safety is the
    evaluator's check, and runtime range-restriction errors must only
    surface when an offending operator actually receives rows, to match
    the reference engine's behavior.
    """
    if isinstance(query, str):
        from .parser import parse_query
        query = parse_query(query)
    estimates = Estimates(view)
    root = _lower(query.formula, set(), estimates)
    return CompiledPlan(query, root, estimates)


def _lower(formula: Formula, bound: Set[Variable],
           estimates: Estimates) -> PlanNode:
    """Recursively lower one formula, given the variables the enclosing
    context will have bound when this node runs."""
    if isinstance(formula, Atom):
        hint = estimates.exact and estimates.count(formula.pattern) == 0
        return AtomJoin(formula, est=estimates.cost(formula, bound),
                        empty_hint=hint)
    if isinstance(formula, And):
        b = set(bound)
        parts: List[PlanNode] = []
        for index in estimates.join_order(formula.parts, bound):
            part = formula.parts[index]
            parts.append(_lower(part, b, estimates))
            b |= estimates.variables(part)
        return Pipeline(formula, tuple(parts),
                        est=estimates.cost(formula, bound))
    if isinstance(formula, Or):
        branches = tuple(_lower(p, set(bound), estimates)
                         for p in formula.parts)
        return Union(formula, branches,
                     est=sum(b.est for b in branches))
    if isinstance(formula, Exists):
        body = _lower(formula.body, bound - {formula.variable}, estimates)
        return SemiJoin(formula, body, est=body.est)
    if isinstance(formula, ForAll):
        body = _lower(
            formula.body,
            bound | formula.free_variables() | {formula.variable},
            estimates)
        return ForAllProbe(formula, body, est=body.est)
    raise QueryError(f"unknown formula type: {type(formula).__name__}")
