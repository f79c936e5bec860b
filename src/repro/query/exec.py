"""Set-at-a-time plan execution over binding tables.

The counterpart of :mod:`repro.query.compile`: runs a
:class:`~repro.query.compile.CompiledPlan` against a
:class:`~repro.virtual.computed.FactView`.  Intermediate results are
:class:`BindingTable`\\ s — a tuple of variable columns plus a list of
entity-id row tuples, kept duplicate-free as an invariant — so one
operator invocation does the work the reference engine spreads over
thousands of per-binding dict allocations.

Equivalence contract: :class:`CompiledEvaluator` produces *exactly* the
answer sets of the reference :class:`~repro.query.evaluate.Evaluator`,
and raises the same :class:`~repro.core.errors.QueryError`\\ s (same
messages) on unsafe or range-violating formulas — including the rule
that runtime range errors only surface when the offending operator
actually receives rows.  The randomized equivalence suite
(``tests/test_query_engine_equivalence.py``) holds both engines to this
across every dataset.

Batch-friendly cancellation: deadline checkpoints
(:mod:`repro.core.deadline`) fire at operator entry, between an
atom's probe and its output pass, every
:data:`~repro.virtual.computed.CHECK_KEYS` keys a computed relation is
asked for, and every ``∀`` domain chunk — per batch, not
per row — so a compiled query is cancellable without paying a flag
test on the innermost loop.

Example::

    from repro import Database

    db = Database()                       # compiled engine by default
    db.add("JOHN", "∈", "EMPLOYEE")
    db.add("JOHN", "EARNS", "$25000")
    assert db.query("(x, ∈, EMPLOYEE) and (x, EARNS, y)") == {
        ("JOHN", "$25000")}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core import deadline as _deadline
from ..core.errors import QueryError
from ..core.facts import Template, Variable
from ..core.interned import InternedFactStore
from ..obs import telemetry as _obs
from ..virtual.computed import CHECK_KEYS, FactView
from .ast import And, Atom, Query, check_safety, require_proposition
from .compile import (
    AtomJoin,
    CompiledPlan,
    ForAllProbe,
    Pipeline,
    PlanNode,
    SemiJoin,
    Union,
    bind_atom_ids,
    compile_query,
)
from .parser import parse_query_memo
from .planner import Estimates

#: Domain chunk size for the ``∀`` anti-probe: small enough that rows
#: which fail early stop scanning, large enough to amortize the batch.
FORALL_CHUNK = 256

#: Fanout-vs-estimate divergence that triggers an adaptive re-order of
#: a pipeline's remaining children (ISSUE 5: ``>10×`` either way).
REPLAN_FACTOR = 10.0


class BindingTable:
    """A columnar set of bindings: variable columns + unique row tuples.

    The executor's unit of exchange.  ``rows`` holds tuples of entity
    ids aligned with ``columns``; uniqueness over the full row is an
    invariant every operator preserves (it is what makes "value of a
    query is a *set*" fall out for free at the end).
    """

    __slots__ = ("columns", "index", "rows", "codec")

    def __init__(self, columns: Sequence[Variable],
                 rows: List[Tuple[str, ...]]):
        self.columns: Tuple[Variable, ...] = tuple(columns)
        self.index: Dict[Variable, int] = {
            v: i for i, v in enumerate(self.columns)}
        self.rows = rows
        #: The execution's :class:`~repro.core.interned.IdCodec`, set on
        #: the *final* table by :func:`execute_plan`: projection decodes
        #: its rows of interned ids column by column.
        self.codec = None

    def __len__(self) -> int:
        return len(self.rows)

    def project_positions(self, variables: Sequence[Variable]) -> List[int]:
        return [self.index[v] for v in variables]

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.columns)
        return f"BindingTable([{names}], {len(self.rows)} rows)"


def unit_table() -> BindingTable:
    """The multiplicative identity: no columns, one empty row."""
    return BindingTable((), [()])


@dataclass
class OperatorStats:
    """Per-operator run accounting (est vs actual), the compiled
    engine's analogue of PR 1's plan-vs-actual conjunct records."""

    label: str
    op: str
    est: float
    depth: int = 0
    calls: int = 0
    in_rows: int = 0
    out_rows: int = 0

    def as_dict(self) -> dict:
        """JSON-able form for bench documents (``benchio``)."""
        return {"label": self.label, "op": self.op, "depth": self.depth,
                "est": round(self.est, 2), "calls": self.calls,
                "in_rows": self.in_rows, "out_rows": self.out_rows}


@dataclass
class PlanRun:
    """One executed plan: the per-operator stats in preorder, plus how
    often the adaptive re-order fired."""

    plan: CompiledPlan
    operators: List[OperatorStats] = field(default_factory=list)
    replans: int = 0
    #: Every run executes on a generation's interned ids; kept for the
    #: benchmark's id-domain share, which reads it.
    id_domain: bool = True

    def describe(self) -> str:
        lines = [f"executed plan: {self.plan.query}"]
        for stats in self.operators:
            lines.append(
                "  " * (stats.depth + 1)
                + f"{stats.label}   [est {stats.est:.1f};"
                f" in {stats.in_rows}; out {stats.out_rows};"
                f" calls {stats.calls}]")
        if self.replans:
            lines.append(f"adaptive re-orders: {self.replans}")
        return "\n".join(lines)


class _IdExec:
    """Id-space state over one store and one registry, shared by every
    plan an evaluator runs while both stand still: the store's codec
    (scratch ids over its generation's interner), the registry's
    computed relations with their declared triggers encoded through it
    (``trigger_ids``, ``None`` for a relation that declares none;
    ``triggers``, per position their union), and the store's overlay
    (``None`` when empty), merged into every probe.
    """

    __slots__ = ("store", "version", "gen", "codec", "overlay",
                 "relations", "trigger_ids", "triggers")

    def __init__(self, store, virtual):
        self.store = store
        self.version = store.version
        self.gen = store.generation
        overlay = store._overlay  # noqa: SLF001
        self.overlay = overlay if overlay else None
        codec = self.codec = store.id_codec()
        self.relations = tuple(virtual)
        self.trigger_ids, self.triggers = [], [set(), set(), set()]
        for relation in self.relations:
            ids = relation.TRIGGERS
            if ids is not None:
                ids = [frozenset(map(codec.encode, names)) for names in ids]
                for union, some in zip(self.triggers, ids):
                    union |= some
            self.trigger_ids.append(ids)


def _id_exec(view: FactView, prior: Optional[_IdExec] = None) -> _IdExec:
    """The id-space state for one execution over ``view``; ``prior``
    (an evaluator's state from its previous plan) is handed back when
    neither the store nor the registry has changed under it."""
    store = view.store
    if prior is not None and prior.store is store \
            and prior.version == store.version \
            and prior.relations == tuple(view.virtual):
        return prior
    if not isinstance(store, InternedFactStore):
        raise TypeError(
            "the compiled executor runs on a view over an interned store"
            f" (Database.view()), not a {type(store).__name__}")
    return _IdExec(store, view.virtual)


class _Context:
    """Per-execution state: the id-space state (registry included),
    stats.

    With ``collect`` off (the evaluator's hot path when telemetry is
    disabled) no :class:`OperatorStats` rows are built or updated —
    per-operator accounting only exists for a consumer.
    """

    __slots__ = ("run", "stats", "collect", "ids", "estimates")

    def __init__(self, run: PlanRun, ids: _IdExec, collect: bool = True):
        self.run = run
        self.collect = collect
        self.ids = ids
        self.estimates = run.plan.estimates
        # Stats rows are created in plan preorder so PlanRun.operators
        # renders as the plan tree regardless of execution order.
        self.stats: Dict[int, OperatorStats] = {}
        if collect:
            for node, depth in run.plan.walk():
                stats = OperatorStats(label=node.label, op=node.op,
                                      est=node.est, depth=depth)
                self.stats[id(node)] = stats
                run.operators.append(stats)


def _decoded_rows(codec, rows: Sequence[tuple]) -> zip:
    """The rows of a table of generation ids as name tuples (one pass each,
    lazily), decoded by column: a column that holds only generation
    ids indexes the name table directly at C level — ``max(column) <
    base`` is the test, not "the codec has scratch ids", for every
    execution mints ``∇`` / ``Δ`` / ``≺`` — and only a column that
    holds a scratch id goes through ``codec.decode`` cell by cell."""
    names, base = codec.interner.names, codec.base
    columns = list(zip(*rows))
    if _obs.ENABLED:
        _obs.TELEMETRY.count("interned.decodes",
                             len(set().union(*columns)))
    return zip(*[
        map(names.__getitem__ if max(column) < base else codec.decode,
            column)
        for column in columns])


def _picked(rows: Sequence[tuple], positions: List[int]):
    """``rows`` projected onto one or more ``positions``, extraction
    kept in C: a single position is re-wrapped, since itemgetter then
    yields the bare component."""
    picked = map(itemgetter(*positions), rows)
    return zip(picked) if len(positions) == 1 else picked


def execute_plan(plan: CompiledPlan, view: FactView,
                 collect: bool = True) -> Tuple[BindingTable, PlanRun]:
    """Run a compiled plan to completion; returns the final binding
    table and the per-operator run statistics.

    ``collect=False`` skips building and updating the per-operator
    stats (``run.operators`` stays empty) — the evaluator passes it
    when no telemetry consumer exists, removing the accounting from
    the hot path.  Direct callers (EXPLAIN ANALYZE, tests) keep the
    default and always get full stats.
    """
    return _run_plan(plan, view, unit_table(), _id_exec(view), collect)


def _run_plan(plan: CompiledPlan, view: FactView, table: BindingTable,
              ids: _IdExec,
              collect: bool) -> Tuple[BindingTable, PlanRun]:
    """One plan execution from ``table`` (the unit table, or a wave's
    seed rows, encoded through ``ids.codec``)."""
    run = PlanRun(plan=plan)
    ctx = _Context(run, ids, collect)
    if _obs.ENABLED:
        _obs.TELEMETRY.count("exec.plans")
    table = _execute(plan.root, table, ctx)
    table.codec = ids.codec
    if _obs.ENABLED:
        _obs.LAST_REQUEST.run = run
    return table, run


# ----------------------------------------------------------------------
# Operator dispatch
# ----------------------------------------------------------------------
def _execute(node: PlanNode, table: BindingTable,
             ctx: _Context) -> BindingTable:
    if _deadline.ACTIVE:
        _deadline.check()
    if ctx.collect:
        stats = ctx.stats[id(node)]
        stats.calls += 1
        stats.in_rows += len(table.rows)
    if isinstance(node, AtomJoin):
        out = _exec_atom(node, table, ctx)
    elif isinstance(node, Pipeline):
        out = _exec_pipeline(node, table, ctx)
    elif isinstance(node, Union):
        out = _exec_union(node, table, ctx)
    elif isinstance(node, SemiJoin):
        out = _exec_semijoin(node, table, ctx)
    elif isinstance(node, ForAllProbe):
        out = _exec_forall(node, table, ctx)
    else:
        raise QueryError(f"unknown plan node: {type(node).__name__}")
    if ctx.collect:
        stats.out_rows += len(out.rows)
    return out


# ----------------------------------------------------------------------
# AtomJoin
# ----------------------------------------------------------------------
def _exec_atom(node: AtomJoin, table: BindingTable,
               ctx: _Context) -> BindingTable:
    """The one join skeleton: split the pattern's variables into bound
    and new, probe once per distinct key (:func:`_id_extensions`), and
    extend each key's rows by its extensions."""
    pattern = node.formula.pattern
    pattern_var_set = ctx.estimates.variables(node.formula)
    bound_vars = tuple(v for v in table.columns if v in pattern_var_set)
    # Extraction positions (first occurrence of each new variable) and
    # the equality checks a repeated new variable imposes on a fact.
    first_occurrence: Dict[Variable, int] = {}
    checks: List[Tuple[int, int]] = []
    for p, component in enumerate(pattern):
        if isinstance(component, Variable) \
                and component not in bound_vars:
            if component in first_occurrence:
                checks.append((first_occurrence[component], p))
            else:
                first_occurrence[component] = p
    out_columns = table.columns + tuple(first_occurrence)
    if not table.rows or node.empty_hint:
        # empty_hint: compile time proved (exact counts, no virtual
        # handler) that this template matches nothing for any key.
        return BindingTable(out_columns, [])
    new_positions = list(first_occurrence.values())
    key_positions = [table.index[v] for v in bound_vars]
    single_key = len(key_positions) == 1
    pure_filter = not new_positions

    # One probe per distinct key, not per row.  A pure filter (no new
    # variables) needs only the distinct keys — collected at C level —
    # while an extending join hash-groups the rows into buckets
    # aligned with ``keys``.  A single-variable key keys the dict on
    # the bare component (no tuple per row); wider keys use itemgetter.
    buckets: List[List[tuple]] = []
    if single_key:
        kp = key_positions[0]
        if pure_filter:
            keys = [(k,) for k in set(map(itemgetter(kp), table.rows))]
        else:
            groups: Dict = {}
            for row in table.rows:
                k = row[kp]
                bucket = groups.get(k)
                if bucket is None:
                    groups[k] = [row]
                else:
                    bucket.append(row)
            keys = [(k,) for k in groups]
            buckets = list(groups.values())
    elif key_positions:
        keyget = itemgetter(*key_positions)
        if pure_filter:
            keys = list(set(map(keyget, table.rows)))
        else:
            groups = {}
            for row in table.rows:
                k = keyget(row)
                bucket = groups.get(k)
                if bucket is None:
                    groups[k] = [row]
                else:
                    bucket.append(row)
            keys = list(groups)
            buckets = list(groups.values())
    else:
        keys = [()]
        buckets = [table.rows]
    if _obs.ENABLED:
        _obs.TELEMETRY.count("exec.atom.keys", len(keys))

    extensions_per_key = _id_extensions(ctx, node, bound_vars, keys,
                                        new_positions, checks)

    if pure_filter:
        # Every bound variable is checked by the probe, so rows survive
        # iff their key matched — one C-level membership pass over the
        # input instead of regrouping buckets.
        if single_key:
            ok = {keys[n][0] for n in range(len(keys))
                  if extensions_per_key[n]}
            out_rows = [row for row in table.rows if row[kp] in ok]
        elif key_positions:
            ok = {keys[n] for n in range(len(keys))
                  if extensions_per_key[n]}
            out_rows = [row for row in table.rows if keyget(row) in ok]
        else:
            out_rows = list(table.rows) if extensions_per_key[0] else []
        if _deadline.ACTIVE:
            _deadline.check()
        return BindingTable(out_columns, out_rows)

    if _deadline.ACTIVE:
        _deadline.check()
    return BindingTable(out_columns, [
        row + extension
        for bucket, extensions in zip(buckets, extensions_per_key)
        for row in bucket for extension in extensions])


def _id_extensions(ctx: _Context, node: AtomJoin,
                   bound_vars: Tuple[Variable, ...], keys: List[tuple],
                   new_positions: List[int],
                   checks: List[Tuple[int, int]]) -> List[list]:
    """The executor's one leaf: join keys, store probes, and
    extensions are ids end-to-end — a generation's interned ints.

    Stored facts come from :func:`_stored_id_extensions`.  Which
    computed relations contribute is decided from the plan's ground
    annotation plus the keys' bound ids against the triggers the
    relations declare — for the whole batch first, then per relation
    and per key — so the common case (no trigger anywhere) pays
    nothing beyond the test.  Each relation then answers its triggered
    keys itself
    (:meth:`~repro.virtual.computed.ComputedRelation.extend_ids`):
    endpoint witnessing as a stored probe with the endpoints left open,
    ``≺``, the comparators and any relation that declares no triggers
    across the string boundary.
    """
    ids = ctx.ids
    pattern = node.formula.pattern
    gen = ids.gen
    ann = node.id_ann
    if ann is None or ann.generation is not gen \
            or ann.relations is not ids.relations:
        ann = bind_atom_ids(pattern, gen, ids.relations)
        node.id_ann = ann

    # The positions a probe fixes, in srt order: ``(position, name, id,
    # None)`` of a ground constant (id ``None``: never in the
    # generation) or ``(position, None, None, key index)`` of a bound
    # variable.
    fixed: List[tuple] = []
    key_of: List[Optional[int]] = [None, None, None]
    for p, component in enumerate(pattern):
        if not isinstance(component, Variable):
            fixed.append((p,) + ann.ground[p] + (None,))
        elif component in bound_vars:
            key_of[p] = bound_vars.index(component)
            fixed.append((p, None, None, key_of[p]))
    extensions_per_key = _stored_id_extensions(
        ids, fixed, keys, new_positions, checks)

    # Computed relations: a ground trigger holds for every key; a bound
    # position triggers where its id is among the encoded trigger ids
    # — first for the whole batch, one C-level membership test per
    # bound position against every relation's; an unbound position
    # never triggers.
    if not ann.every_key:
        for p, k in enumerate(key_of):
            if k is not None and not ids.triggers[p].isdisjoint(
                    map(itemgetter(k), keys)):
                break
        else:
            return extensions_per_key

    def probe(opened, some_keys):
        return _stored_id_extensions(
            ids, [slot for slot in fixed if not opened[slot[0]]],
            some_keys, new_positions, checks)

    for relation, trigger_ids, ground in zip(
            ids.relations, ids.trigger_ids, ann.triggers):
        numbers, opened = _triggered(keys, key_of, ground, trigger_ids)
        if not numbers:
            continue
        found = relation.extend_ids(
            pattern, key_of, [keys[n] for n in numbers], opened, probe,
            ids.codec, ids.store, new_positions)
        for n, extra in zip(numbers, found):
            if extra:
                # Witnesses of one key may project to one extension, and
                # a stored fact or another relation may spell one out.
                extensions_per_key[n] = list(dict.fromkeys(
                    extensions_per_key[n] + extra))
    return extensions_per_key


def _triggered(keys: List[tuple], key_of: List[Optional[int]],
               ground: Optional[Tuple[bool, ...]],
               trigger_ids: Optional[List[frozenset]]
               ) -> Tuple[Sequence[int], Optional[List[Tuple[bool, ...]]]]:
    """The numbers of the ``keys`` that trigger one relation, and per
    such key the positions that do: those ``ground`` marks, and each
    bound position whose id is among the relation's ``trigger_ids``
    there.  A position no key triggers is ruled out at C level.  A
    relation that declares no triggers (``ground`` ``None``) is asked
    for every key, with no positions."""
    if ground is None:
        return range(len(keys)), None
    tests = [(p, k, trigger_ids[p]) for p, k in enumerate(key_of)
             if k is not None and trigger_ids[p]
             and not trigger_ids[p].isdisjoint(map(itemgetter(k), keys))]
    if not tests and True not in ground:
        return (), ()
    numbers, opened = [], []
    for n, key in enumerate(keys):
        if _deadline.ACTIVE and n % CHECK_KEYS == 0:
            _deadline.check()
        hit = list(ground)
        for p, k, names in tests:
            if key[k] in names:
                hit[p] = True
        if True in hit:
            numbers.append(n)
            opened.append(tuple(hit))
    return numbers, opened


def _stored_id_extensions(ids: _IdExec, fixed: List[tuple],
                          keys: List[tuple], new_positions: List[int],
                          checks: List[Tuple[int, int]]) -> List[list]:
    """Per key, the extensions of the stored facts — generation minus
    tombstones, plus overlay — that match on the ``fixed`` positions
    (:func:`_id_extensions`: all of an atom's ground and bound ones, or
    those an endpoint leaves).

    The store is probed through its batched id surface
    (:meth:`~repro.core.interned.InternedFactStore.lookup_many_ids`),
    repeated unbound variables checked there (id equality is name
    equality).  The overlay's facts are found through its own hash
    index and encoded through the codec (scratch ids for names the
    generation never saw).  Overlay and generation are disjoint by
    store invariant, so no dedup.
    """
    if _obs.ENABLED:
        _obs.TELEMETRY.count("store.lookups", len(keys))
    spec = ""
    for slot in fixed:
        spec += "srt"[slot[0]]
    if len(keys) == 1 or not fixed:
        probe_keys = [
            tuple([g if k is None else key[k] for _p, _name, g, k in fixed])
            for key in keys]
    else:
        # A batch is built by column, at C level.
        probe_keys = list(zip(*[
            repeat(g) if k is None else map(itemgetter(k), keys)
            for _p, _name, g, k in fixed]))
    extensions_per_key = ids.store.lookup_many_ids(
        spec, probe_keys, positions=new_positions, checks=checks)
    if ids.overlay is None:
        return extensions_per_key
    # The overlay's index answers the *ground* positions every key
    # shares: an atom whose constants no overlay fact mentions pays one
    # lookup and nothing per key.
    names: List[Optional[str]] = [None, None, None]
    bound: List[Tuple[int, int]] = []   # (position, key index)
    for p, name, _g, k in fixed:
        names[p] = name
        if k is not None:
            bound.append((p, k))
    candidates = ids.overlay.lookup(*names)
    if not candidates:
        return extensions_per_key
    encode = ids.codec.encode
    if len(keys) < len(candidates):
        # Fewer keys than candidates (a wave's seed rows against an
        # atom with nothing ground): one indexed lookup per key.
        decode = ids.codec.decode
        for n, key in enumerate(keys):
            for p, k in bound:
                names[p] = decode(key[k])
            for f in ids.overlay.lookup(*names):
                if not checks or all(f[i] == f[j] for i, j in checks):
                    extensions_per_key[n].append(
                        tuple([encode(f[p]) for p in new_positions]))
        return extensions_per_key
    # Otherwise the few candidates are each appended to the key they
    # agree with on the bound variables.  Per bound variable its first
    # position gives the key component; a repeat must agree with it,
    # like the repeated unbound variables of ``checks``.
    first_of: Dict[int, int] = {}
    equal = list(checks)
    for p, k in bound:
        if k in first_of:
            equal.append((first_of[k], p))
        else:
            first_of[k] = p
    where = {tuple([key[k] for k in first_of]): n
             for n, key in enumerate(keys)}
    firsts = list(first_of.values())
    for f in candidates:
        if equal and not all(f[i] == f[j] for i, j in equal):
            continue
        n = where.get(tuple([encode(f[p]) for p in firsts]))
        if n is not None:
            extensions_per_key[n].append(
                tuple([encode(f[p]) for p in new_positions]))
    return extensions_per_key



# ----------------------------------------------------------------------
# Pipeline (∧) with adaptive re-order
# ----------------------------------------------------------------------
def _exec_pipeline(node: Pipeline, table: BindingTable,
                   ctx: _Context) -> BindingTable:
    remaining = list(node.parts)
    bound = set(table.columns)
    estimates = ctx.estimates
    while remaining:
        child = remaining.pop(0)
        # Per-input-row estimate at this point in the pipeline — the
        # same quantity the reference planner computes per binding, so
        # PR 1's plan-vs-actual records stay comparable across engines.
        # The estimate only exists for a consumer: the conjunct trace,
        # or the adaptive re-order (which needs ≥2 conjuncts left).
        if _obs.ENABLED or len(remaining) >= 2:
            est = estimates.cost(child.formula, bound)
        else:
            est = 0.0
        in_rows = len(table.rows)
        table = _execute(child, table, ctx)
        out_rows = len(table.rows)
        if _obs.ENABLED:
            _obs.TELEMETRY.record_conjunct(str(child.formula), est, out_rows)
        bound |= estimates.variables(child.formula)
        if not out_rows:
            # No bindings survive: the remaining conjuncts can neither
            # produce rows nor raise (the reference engine never
            # reaches them with zero bindings).  The column set of the
            # empty table is irrelevant downstream.
            break
        if len(remaining) >= 2:
            fanout = out_rows / max(1, in_rows)
            if fanout > est * REPLAN_FACTOR \
                    or (fanout + 0.1) * REPLAN_FACTOR < est:
                # The estimate was off by more than 10× either way:
                # re-rank what's left under what is *actually* bound.
                # Stable sort keeps the compiled order between ties, so
                # deferred-quantifier ordering (and therefore which
                # range error could surface) matches the reference.
                remaining.sort(key=lambda part: estimates.rank(
                    part.formula, bound)[0])
                ctx.run.replans += 1
                if _obs.ENABLED:
                    _obs.TELEMETRY.count("exec.replans")
    return table


# ----------------------------------------------------------------------
# Union (∨)
# ----------------------------------------------------------------------
def _exec_union(node: Union, table: BindingTable,
                ctx: _Context) -> BindingTable:
    free = node.formula.free_variables()
    columns = set(table.columns)
    new_vars = tuple(sorted(free - columns, key=lambda v: v.name))
    out_columns = table.columns + new_vars
    seen: Set[Tuple[str, ...]] = set()
    out_rows: List[Tuple[str, ...]] = []
    for branch in node.branches:
        missing = free - branch.formula.free_variables() - columns
        result = _execute(branch, table, ctx)
        if not result.rows:
            continue
        if missing:
            # Same guard, message, and rows-required behavior as the
            # reference engine (safety checking rejects this statically
            # for evaluate/ask; direct formula solving can reach it).
            raise QueryError(
                f"disjunct {branch.formula} does not bind"
                f" {[v.name for v in missing]}")
        positions = result.project_positions(out_columns)
        for row in result.rows:
            projected = tuple(row[i] for i in positions)
            if projected not in seen:
                seen.add(projected)
                out_rows.append(projected)
    return BindingTable(out_columns, out_rows)


# ----------------------------------------------------------------------
# SemiJoin (∃)
# ----------------------------------------------------------------------
def _exec_semijoin(node: SemiJoin, table: BindingTable,
                   ctx: _Context) -> BindingTable:
    formula = node.formula
    outer = formula.free_variables()
    # The distinct projection the body actually depends on.  The
    # quantified variable is *not* projected even if bound outside:
    # the outer binding is shadowed inside and restored in the output.
    probe_vars = tuple(v for v in table.columns if v in outer)
    probe_positions = [table.index[v] for v in probe_vars]
    new_vars = tuple(sorted(outer - set(table.columns),
                            key=lambda v: v.name))

    distinct: List[Tuple[str, ...]] = []
    seen_keys: Set[Tuple[str, ...]] = set()
    for row in table.rows:
        key = tuple(row[i] for i in probe_positions)
        if key not in seen_keys:
            seen_keys.add(key)
            distinct.append(key)
    if _obs.ENABLED:
        _obs.TELEMETRY.count("exec.exists.keys", len(distinct))

    result = _execute(node.body, BindingTable(probe_vars, distinct), ctx)

    if not new_vars:
        # Pure semi-join: keep input rows whose projection succeeded.
        if not result.rows:
            return BindingTable(table.columns, [])
        ok_positions = result.project_positions(probe_vars)
        ok = {tuple(row[i] for i in ok_positions) for row in result.rows}
        kept = [
            row for row in table.rows
            if tuple(row[i] for i in probe_positions) in ok
        ]
        return BindingTable(table.columns, kept)

    out_columns = table.columns + new_vars
    if not result.rows:
        return BindingTable(out_columns, [])
    key_positions = result.project_positions(probe_vars)
    value_positions = result.project_positions(new_vars)
    witnesses: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
    witness_seen: Dict[Tuple[str, ...], Set[Tuple[str, ...]]] = {}
    for row in result.rows:
        key = tuple(row[i] for i in key_positions)
        values = tuple(row[i] for i in value_positions)
        marker = witness_seen.get(key)
        if marker is None:
            marker = witness_seen[key] = set()
            witnesses[key] = []
        if values not in marker:
            marker.add(values)
            witnesses[key].append(values)
    out_rows: List[Tuple[str, ...]] = []
    append = out_rows.append
    empty: Tuple[Tuple[str, ...], ...] = ()
    for row in table.rows:
        key = tuple(row[i] for i in probe_positions)
        for values in witnesses.get(key, empty):
            append(row + values)
    return BindingTable(out_columns, out_rows)


# ----------------------------------------------------------------------
# ForAllProbe (∀)
# ----------------------------------------------------------------------
def _exec_forall(node: ForAllProbe, table: BindingTable,
                 ctx: _Context) -> BindingTable:
    if not table.rows:
        # The reference engine only reaches a ∀ per candidate binding;
        # with none, it neither filters nor raises.
        return table
    formula = node.formula
    free = formula.free_variables()
    unbound = free - set(table.columns)
    if unbound:
        raise QueryError(
            "∀ reached with unbound free variables"
            f" {sorted(v.name for v in unbound)}; conjoin a"
            " generating template for them (range restriction)")
    probe_vars = tuple(v for v in table.columns if v in free)
    probe_positions = [table.index[v] for v in probe_vars]
    alive: Set[Tuple[str, ...]] = {
        tuple(row[i] for i in probe_positions) for row in table.rows
    }
    # Same entity *set* as view.entities(), in id space (order may
    # differ, which only affects chunk boundaries, not results).
    domain = ctx.ids.store.entity_id_domain(ctx.ids.codec.encode)
    if _obs.ENABLED:
        _obs.TELEMETRY.count("exec.forall.keys", len(alive))
        _obs.TELEMETRY.gauge("query.forall.domain_size", len(domain))
    body_columns = probe_vars + (formula.variable,)
    for start in range(0, len(domain), FORALL_CHUNK):
        if not alive:
            break
        if _deadline.ACTIVE:
            _deadline.check()
        chunk = domain[start:start + FORALL_CHUNK]
        rows = [key + (entity,) for key in alive for entity in chunk]
        result = _execute(
            node.body, BindingTable(body_columns, rows), ctx)
        positions = result.project_positions(body_columns)
        satisfied: Dict[Tuple[str, ...], int] = {}
        seen_pairs: Set[Tuple[str, ...]] = set()
        for row in result.rows:
            pair = tuple(row[i] for i in positions)
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                key = pair[:-1]
                satisfied[key] = satisfied.get(key, 0) + 1
        need = len(chunk)
        # Keys that missed any entity of this chunk are dropped now,
        # so they stop paying for the rest of the domain scan.
        alive = {key for key in alive if satisfied.get(key, 0) == need}
    kept = [
        row for row in table.rows
        if tuple(row[i] for i in probe_positions) in alive
    ]
    return BindingTable(table.columns, kept)


# ----------------------------------------------------------------------
# The compiled engine
# ----------------------------------------------------------------------
class CompiledEvaluator:
    """The set-at-a-time engine behind ``Database(query_engine=
    "compiled")`` (the default).

    ``evaluate`` / ``ask`` / ``succeeds`` compile the query once and
    run the plan over binding tables.  The answers and errors are the
    reference :class:`~repro.query.evaluate.Evaluator`'s, which this
    class does not import: text goes through the same parse memo
    (:func:`~repro.query.parser.parse_query_memo`) and the same static
    checks (:mod:`repro.query.ast`).

    A plan lives for one evaluation: it is lowered against the view it
    runs on, so its join order and provably-empty hints are always
    that view's.  What one evaluator's plans do share is the id-space
    state (:class:`_IdExec`: the store's codec, the registry's
    encoded triggers) — a probe's own query and every wave after it
    run on one, for as long as the store and registry stand still.

    The view's store must be an interned one (any store of a
    :class:`~repro.db.Database`, e.g. :meth:`Database.view()
    <repro.db.Database.view>`): a plan over a hash
    :class:`~repro.core.store.FactStore` raises :class:`TypeError`.
    The reference engine runs over either.
    """

    def __init__(self, view: FactView):
        self.view = view
        self._ids: Optional[_IdExec] = None

    @staticmethod
    def _resolve(query: Union[str, Query]) -> Query:
        """The parsed query for either input form."""
        if isinstance(query, str):
            return parse_query_memo(query)
        return query

    def _prepare(self, query: Union[str, Query],
                 proposition: bool = False) -> Query:
        """The parsed query, raising its static errors in the reference
        engine's order: not-a-proposition before safety."""
        query = self._resolve(query)
        if proposition:
            require_proposition(query)
        check_safety(query.formula)
        return query

    def evaluate(self, query: Union[str, Query]) -> Set[Tuple[str, ...]]:
        """The value {Q}, via compiled plan execution."""
        query = self._prepare(query)
        evaluate_span = (
            _obs.TELEMETRY.span("query.evaluate", query=str(query),
                                engine="compiled")
            if _obs.ENABLED else _obs.NULL_SPAN)
        with evaluate_span as span:
            table = self._table(query)
            results = self._project(query, table)
            span.set(rows=len(results))
        return results

    def ask(self, query: Union[str, Query]) -> bool:
        """Truth value of a proposition (§2.7)."""
        return self._truth(query, proposition=True)

    def succeeds(self, query: Union[str, Query]) -> bool:
        """True if the query has a non-empty value — the §5 probe
        predicate (a query *fails* when it succeeds for no tuple)."""
        return self._truth(query, proposition=False)

    def _truth(self, query: Union[str, Query], proposition: bool) -> bool:
        """Shared ``ask``/``succeeds`` path — only the proposition
        requirement differs.  A non-empty final table is a non-empty
        answer set (projection preserves emptiness), so truth queries
        never decode a single id."""
        return bool(self._table(self._prepare(query, proposition)).rows)

    def evaluate_with_stats(self, query: Union[str, Query]
                            ) -> Tuple[Set[Tuple[str, ...]], PlanRun]:
        """Evaluation that also returns the per-operator run
        statistics — the compiled engine's EXPLAIN ANALYZE source
        (stats collection always on)."""
        query = self._prepare(query)
        plan = compile_query(query, self.view)
        table, run = execute_plan(plan, self.view)
        return self._project(query, table), run

    # ------------------------------------------------------------------
    def _table(self, query: Query) -> BindingTable:
        """Lower the (checked) query against this view and run it."""
        ids = self._ids = _id_exec(self.view, self._ids)
        return _run_plan(compile_query(query, self.view), self.view,
                         unit_table(), ids, _obs.ENABLED)[0]

    def evaluate_wave(self, candidates: Sequence
                      ) -> Tuple[List[Set[Tuple[str, ...]]], int]:
        """One join per *variable skeleton* instead of one plan per
        candidate.

        Candidates that agree on where their variables are and on
        ``free`` (replacing a constant by a constant never changes
        either; deleting a weak template does) differ only in
        constants.  Every ground position becomes a seed column, the
        skeleton is joined once from one input row per candidate, and
        the final table is split by seed row, projected onto ``free``
        and decoded.  A seed is a bound variable, so each atom probes
        once per distinct key exactly as the candidate's own ground
        template would have; candidates are broader forms of a query
        :meth:`evaluate` already checked and are not checked again.

        The order a candidate's own plan would join its templates in
        is part of the skeleton: a computed relation may enumerate
        less than it tests (a comparator enumerates the active domain
        and tests any two names), so what an atom matches can depend
        on what is bound when it runs.
        """
        values: List[Set[Tuple[str, ...]]] = [set() for _ in candidates]
        groups: Dict[tuple, List[tuple]] = {}
        # Candidates of one wave share most of their templates: one
        # estimator, so each distinct template is counted once.
        estimates = Estimates(self.view)
        for candidate, value in zip(candidates, values):
            templates = candidate.templates
            skeleton = tuple([
                tuple([c if isinstance(c, Variable) else None for c in t])
                for t in templates])
            order = (0,) if len(templates) == 1 else tuple(
                estimates.join_order([Atom(t) for t in templates], set()))
            groups.setdefault((skeleton, candidate.free, order),
                              []).append((candidate, value))
        for (_skeleton, _free, order), members in groups.items():
            if _deadline.ACTIVE:
                _deadline.check()
            self._join_group(members, order, estimates)
        return values, len(groups)

    def _join_group(self, members: List[tuple], order: Tuple[int, ...],
                    estimates: Estimates) -> None:
        """Answer one skeleton group — ``(candidate, its value set to
        fill)`` pairs — with its templates joined in ``order``."""
        first = members[0][0]
        seeds: List[Variable] = []
        atoms: List[Atom] = []
        for template in first.templates:
            lifted = []
            for component in template:
                if not isinstance(component, Variable):
                    # A name the query grammar cannot produce.
                    component = Variable(f"${len(seeds)}")
                    seeds.append(component)
                lifted.append(component)
            atoms.append(Atom(Template(*lifted)))
        # Estimates are the first candidate's own, constants and all.
        parts: List[PlanNode] = []
        bound: Set[Variable] = set()
        for index in order:
            own = Atom(first.templates[index])
            parts.append(AtomJoin(
                atoms[index], est=estimates.cost(own, bound)))
            bound |= estimates.variables(own)
        formula = And(tuple(atoms))
        root = parts[0] if len(parts) == 1 else Pipeline(
            formula, tuple(parts), est=parts[0].est)
        plan = CompiledPlan(Query(formula, tuple(seeds) + first.free), root,
                            estimates)
        rows = [tuple([c for t in candidate.templates for c in t
                       if not isinstance(c, Variable)])
                for candidate, _value in members]
        ids = self._ids = _id_exec(self.view, self._ids)
        encode = ids.codec.encode
        rows = [tuple([encode(name) for name in row]) for row in rows]
        wave_span = (
            _obs.TELEMETRY.span("query.evaluate", query=str(plan.query),
                                engine="compiled", seeds=len(rows))
            if _obs.ENABLED else _obs.NULL_SPAN)
        with wave_span as span:
            table = _run_plan(
                plan, self.view,
                BindingTable(seeds, list(dict.fromkeys(rows))),
                ids, _obs.ENABLED)[0]
            span.set(rows=len(table.rows))
            if table.rows:
                # A join that went empty mid-way stops without adding
                # the remaining columns; there is nothing to split.
                width = len(seeds)
                positions = table.project_positions(first.free)
                found = (_decoded_rows(table.codec,
                                       _picked(table.rows, positions))
                         if positions else repeat(()))
                answers: Dict[tuple, Set[Tuple[str, ...]]] = {}
                for row, answer in zip(table.rows, found):
                    answers.setdefault(row[:width], set()).add(answer)
                for row, (_candidate, value) in zip(rows, members):
                    value.update(answers.get(row, ()))

    @staticmethod
    def _project(query: Query,
                 table: BindingTable) -> Set[Tuple[str, ...]]:
        if query.is_proposition:
            return {()} if table.rows else set()
        if not table.rows:
            # A pipeline that went empty mid-way stops without adding
            # the remaining columns; there is nothing to project.
            return set()
        positions = table.project_positions(query.variables)
        rows = table.rows
        if positions != list(range(len(table.columns))):
            # Dedup on ids before any name is touched (dedup on names
            # equals dedup on ids — the codec is injective both ways).
            # An identity projection skips this: the rows already are
            # the output tuples, and unique.
            rows = set(_picked(rows, positions))
        # The only place ids become strings.
        return set(_decoded_rows(table.codec, rows))
