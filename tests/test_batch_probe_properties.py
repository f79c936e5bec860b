"""The per-query and per-batch shortcuts of a cold join against the
slow way each replaced.

Three properties on random small heaps:

* **the batch leaf** — ``InternedFactStore.lookup_many_ids`` resolves a
  call's ``spec`` once and walks the index per key
  (``ColumnarGeneration.positions_many``); it must equal, key by key
  and in order, ``ColumnarGeneration.positions`` filtered (tombstones,
  repeated-variable ``checks``) and projected the slow way — for every
  ``spec``, batches of 0 / 1 / 2 / many keys with duplicates, a
  ``None`` component, a scratch id, every ``positions`` shape, over an
  overlay and a tombstone layer;
* **one lowering's estimates** — the plan ``compile_query`` lowers
  through one :class:`~repro.query.planner.Estimates` has the join
  order and, on every node, the ``est`` and ``empty_hint`` that
  per-call ``conjunct_rank`` / ``estimate_cost`` give, and asks the
  view for each distinct atom's count at most once (exactly once on a
  store with exact counts);
* **projection by column** — ``CompiledEvaluator._project`` equals
  decoding every cell through the codec, for a column that holds a
  scratch id, on an attached generation's lazy name table, with
  duplicate projected rows and for the identity, single-position and
  general projections.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entities import GT, ISA, LT, MEMBER, NE, TOP
from repro.core.facts import Fact, Template, Variable
from repro.core.interned import InternedFactStore, unlink_generation
from repro.db import Database
from repro.obs import Telemetry, use_telemetry
from repro.query.ast import And, Atom, Exists, ForAll, Or, Query
from repro.query.compile import AtomJoin, compile_query
from repro.query.exec import BindingTable, CompiledEvaluator
from repro.query.planner import conjunct_rank, estimate_cost
from repro.virtual.computed import FactView

NAMES = ["A", "B", "C", "D", "1", "2"]
RELATIONS = ["R", "S", ISA, MEMBER]
X, Y, Z, W = (Variable(name) for name in "xyzw")

_fact = st.builds(Fact, st.sampled_from(NAMES), st.sampled_from(RELATIONS),
                  st.sampled_from(NAMES))
_facts = st.lists(_fact, min_size=1, max_size=24, unique=True)


# ----------------------------------------------------------------------
# The batch leaf
# ----------------------------------------------------------------------
def slow_lookup(store, spec, keys, positions, checks):
    """``lookup_many_ids`` one key at a time, through ``positions``."""
    gen = store.generation
    base = len(gen.interner)
    removed = store._removed_at
    cols = (gen.scol, gen.rcol, gen.tcol)
    results = []
    for key in keys:
        if any(i is None or i >= base for i in key):
            results.append([])
            continue
        offsets = [p for p in gen.positions(spec, key)
                   if p not in removed
                   and all(cols[i][p] == cols[j][p] for i, j in checks)]
        if positions is None:
            results.append([tuple(col[p] for col in cols) for p in offsets])
        elif positions:
            results.append([tuple(cols[q][p] for q in positions)
                            for p in offsets])
        else:
            results.append([()] if offsets else [])
    return results


@st.composite
def _probes(draw):
    """A layered store and one ``lookup_many_ids`` call on it."""
    facts = draw(_facts)
    store = InternedFactStore.from_facts(facts)
    # Tombstones (a run of several facts keeps its others) and an
    # overlay, names the generation never saw included.
    for fact in draw(st.lists(st.sampled_from(facts), max_size=6)):
        store.discard(fact)
    for fact in draw(st.lists(_fact, max_size=4)):
        store.add(fact)
    store.add(Fact("NEW", "R", "A"))
    base = len(store.generation.interner)
    spec = draw(st.sampled_from(["", "s", "r", "t", "sr", "rt", "st",
                                 "srt"]))
    component = st.one_of(
        st.integers(0, base - 1), st.integers(0, base - 1),
        st.integers(0, base - 1), st.none(),
        st.integers(base, base + 2))
    key = st.tuples(*[component] * len(spec))
    keys = draw(st.one_of(
        st.lists(key, max_size=2),
        st.lists(key, min_size=3, max_size=12).map(lambda ks: ks + ks[:2])))
    open_columns = [p for p, letter in enumerate("srt")
                    if letter not in spec]
    positions = draw(st.one_of(
        st.none(), st.just([]),
        st.lists(st.sampled_from(open_columns), min_size=1, max_size=2,
                 unique=True) if open_columns else st.just([])))
    # (x, R, x)-shaped patterns: two open columns that must agree.
    checks = [tuple(open_columns[:2])] \
        if len(open_columns) >= 2 and draw(st.booleans()) else []
    return store, spec, keys, positions, checks


@settings(max_examples=250, deadline=None)
@given(probe=_probes())
def test_the_batch_leaf_answers_each_key_as_positions_would(probe):
    store, spec, keys, positions, checks = probe
    assert store.lookup_many_ids(spec, keys, positions=positions,
                                 checks=checks) \
        == slow_lookup(store, spec, keys, positions, checks)


def test_a_tombstone_inside_a_run_leaves_the_rest_of_the_run():
    facts = [Fact("A", "R", name) for name in "BCDE"]
    store = InternedFactStore.from_facts(facts + [Fact("B", "R", "A")])
    store.discard(Fact("A", "R", "C"))
    id_of = store.generation.interner.id_of
    keys = [(id_of("A"), id_of("R")), (id_of("B"), id_of("R")),
            (id_of("A"), id_of("R"))]
    found = store.lookup_many_ids("sr", keys, positions=[2])
    assert found == slow_lookup(store, "sr", keys, [2], [])
    assert found[0] == found[2] == [(id_of(name),) for name in "BDE"]


# ----------------------------------------------------------------------
# One lowering's estimates
# ----------------------------------------------------------------------
_component = st.one_of(st.sampled_from([X, Y, Z]), st.sampled_from(NAMES))
_atom = st.builds(
    lambda s, r, t: Atom(Template(s, r, t)), _component,
    st.one_of(st.sampled_from(RELATIONS + [LT, GT, NE, TOP]),
              st.just(W)),
    _component)


def _formulas(depth: int):
    if depth == 0:
        return _atom
    inner = _formulas(depth - 1)
    parts = st.lists(inner, min_size=2, max_size=4).map(tuple)
    return st.one_of(
        _atom, parts.map(And), parts.map(And), parts.map(Or),
        st.builds(Exists, st.sampled_from([X, Y]), inner),
        st.builds(ForAll, st.sampled_from([Y, Z]), inner))


def per_call_lowering(formula, bound, view):
    """What ``compile._lower`` yields — ``(formula, est)`` in plan
    preorder — with every rank and estimate asked of the view anew."""
    if isinstance(formula, Atom):
        return [(formula, estimate_cost(formula, bound, view))]
    if isinstance(formula, And):
        nodes = [(formula, estimate_cost(formula, bound, view))]
        remaining = list(formula.parts)
        b = set(bound)
        while remaining:
            # The first listed wins a tie, as ``min`` does.
            best = min(remaining,
                       key=lambda part: conjunct_rank(part, b, view)[0])
            remaining.remove(best)
            nodes += per_call_lowering(best, set(b), view)
            b |= best.free_variables()
        return nodes
    if isinstance(formula, Or):
        branches = [per_call_lowering(part, set(bound), view)
                    for part in formula.parts]
        return ([(formula, sum(branch[0][1] for branch in branches))]
                + [node for branch in branches for node in branch])
    if isinstance(formula, Exists):
        body = per_call_lowering(
            formula.body, bound - {formula.variable}, view)
    else:
        body = per_call_lowering(
            formula.body,
            bound | formula.free_variables() | {formula.variable}, view)
    return [(formula, body[0][1])] + body


class CountingView(FactView):
    """A view that records every template whose count it is asked."""

    def __init__(self, view: FactView):
        super().__init__(view.store, view.virtual)
        self.asked = []

    def count_estimate(self, pattern, binding=None):
        self.asked.append(pattern)
        return super().count_estimate(pattern, binding)


def _atoms(formula):
    if isinstance(formula, Atom):
        return [formula]
    if isinstance(formula, (And, Or)):
        return [atom for part in formula.parts for atom in _atoms(part)]
    return _atoms(formula.body)


@settings(max_examples=200, deadline=None)
@given(facts=_facts, formula=_formulas(2),
       layout=st.sampled_from(["plain", "compacted", "overlay"]))
def test_one_lowering_orders_and_estimates_as_per_call_costs_would(
        facts, formula, layout):
    db = Database(facts)
    if layout != "plain":
        db.view()
        db.compact_store()
    if layout == "overlay":
        db.add("NEW", "R", "A")
        db.remove_fact(facts[0])
    view = CountingView(db.view())
    # Lowering never checks safety: any formula lowers.
    query = Query(formula, tuple(sorted(formula.free_variables(),
                                        key=lambda v: v.name)))
    with use_telemetry(Telemetry()) as telemetry:
        plan = compile_query(query, view)
    lowered = [(node.formula, node.est) for node, _depth in plan.walk()]
    asked = list(view.asked)
    assert lowered == per_call_lowering(formula, set(), view)
    for node, _depth in plan.walk():
        if isinstance(node, AtomJoin):
            assert node.empty_hint == (
                view.exact_counts
                and view.count_estimate(node.formula.pattern) == 0)
    # One count per distinct atom, however often its cost was asked.
    distinct = {atom.pattern for atom in _atoms(formula)}
    assert len(asked) == len(set(asked))
    assert set(asked) <= distinct
    if view.exact_counts:
        assert set(asked) == distinct
    assert telemetry.counters.get("planner.count_estimates", 0) \
        == len(asked)


def test_the_macro_join_asks_one_count_per_atom():
    db = Database()
    for n in range(12):
        db.add(f"EMP{n}", "WORKS-FOR", f"DEPT{n % 3}")
        db.add(f"EMP{n}", "EARNS", str(20000 + 500 * n))
    for n in range(3):
        db.add(f"DEPT{n}", MEMBER, "DEPARTMENT")
    db.view()
    db.compact_store()
    text = ("(EMP4, WORKS-FOR, d) and (d, ∈, DEPARTMENT)"
            " and (x, WORKS-FOR, d) and (x, EARNS, s)")
    with use_telemetry(Telemetry()) as telemetry:
        rows = db.query(text)
    assert len(rows) == 4
    # Lowering, the executor's per-conjunct estimates and its adaptive
    # re-order all read the four counts lowering asked for.
    assert telemetry.counters["planner.count_estimates"] == 4


# ----------------------------------------------------------------------
# Projection by column
# ----------------------------------------------------------------------
@st.composite
def _tables(draw):
    facts = draw(_facts)
    width = draw(st.integers(1, 3))
    columns = (X, Y, Z)[:width]
    variables = draw(st.one_of(
        st.just(columns),                                   # identity
        st.sampled_from(columns).map(lambda v: (v,)),       # one position
        st.permutations(columns).map(tuple),                # general
        st.lists(st.sampled_from(columns), min_size=1, max_size=width,
                 unique=True).map(tuple)))
    cell = st.integers(0, 6)     # an index into four base ids + scratch
    rows = draw(st.lists(st.tuples(*[cell] * width), min_size=1,
                         max_size=12, unique=True))
    return facts, columns, variables, rows, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(table=_tables())
def test_projection_by_column_decodes_as_cell_by_cell_would(table):
    facts, columns, variables, rows, attached = table
    source = InternedFactStore.from_facts(facts)
    file_name = source.generation.share() if attached else None
    store = InternedFactStore.attach(file_name) if attached else source
    try:
        codec = store.id_codec()
        scratch = [codec.encode(name) for name in (TOP, "GHOST", ISA)]
        assert max(scratch) >= codec.base
        ids = list(range(min(codec.base, 4))) + scratch
        # Rows of a table are unique; projected rows need not be.
        binding = BindingTable(columns, list(dict.fromkeys(
            tuple(ids[cell % len(ids)] for cell in row) for row in rows)))
        binding.codec = codec
        positions = [columns.index(v) for v in variables]
        expected = {tuple(codec.decode(row[p]) for p in positions)
                    for row in binding.rows}
        with use_telemetry(Telemetry()) as telemetry:
            assert CompiledEvaluator._project(
                Query(Atom(Template(X, Y, Z)), variables), binding) \
                == expected
        assert telemetry.counters["interned.decodes"] == len(
            {row[p] for row in binding.rows for p in positions})
    finally:
        if attached:
            store.close()
            unlink_generation(file_name)
