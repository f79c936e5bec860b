"""Unit tests for the set-at-a-time query executor.

Covers plan lowering (:mod:`repro.query.compile`), the binding-table
operators (:mod:`repro.query.exec`), quantifier deferral in the
planner, the succeeds-cache, deadline cancellation on the direct (non
TCP) path, adaptive re-ordering, and compiled EXPLAIN / EXPLAIN
ANALYZE.  The randomized cross-engine suite lives in
``test_query_engine_equivalence.py``; these tests pin the individual
mechanisms with hand-built stores.
"""

from __future__ import annotations

import pytest

from repro.core.deadline import deadline_scope
from repro.core.errors import DeadlineExceeded, QueryError
from repro.core.facts import Variable
from repro.db import Database
from repro.obs import Telemetry, use_telemetry
from repro.query import (
    CompiledEvaluator,
    compile_query,
    explain,
    order_conjuncts,
    parse_query,
)
from repro.query.ast import And, Or, Query, atom, exists, forall
from repro.query.evaluate import Evaluator
from repro.query.exec import BindingTable, execute_plan, unit_table
from repro.query.explain import explain_analyze

X, Y, Z, W = (Variable(name) for name in "xyzw")


@pytest.fixture()
def db():
    """A small world with classes, links, and a self-citation."""
    database = Database()
    for source, relationship, target in [
        ("JOHN", "OF-CLASS", "EMPLOYEE"),
        ("MARY", "OF-CLASS", "EMPLOYEE"),
        ("SUE", "OF-CLASS", "MANAGER"),
        ("JOHN", "WORKS-FOR", "SALES"),
        ("MARY", "WORKS-FOR", "SALES"),
        ("SUE", "WORKS-FOR", "HQ"),
        ("JOHN", "LIKES", "MARY"),
        ("SUE", "LIKES", "SUE"),
    ]:
        database.add(source, relationship, target)
    return database


class TestPlanShapes:
    def test_conjunction_lowers_to_pipeline_of_atom_joins(self, db):
        plan = compile_query("(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)",
                             db.view())
        rendered = plan.describe()
        assert rendered.startswith("compiled plan:")
        assert "pipeline (∧, 2 parts)" in rendered
        assert rendered.count("atom-join") == 2

    def test_quantifiers_lower_to_probe_operators(self, db):
        view = db.view()
        assert "semi-join (∃d)" in compile_query(
            "exists d: (x, WORKS-FOR, d)", view).describe()
        plan = compile_query(Query.of(And((
            atom(X, "OF-CLASS", "EMPLOYEE"),
            forall(W, Or((atom(W, "≠", "MARY"), atom(X, "LIKES", W)))),
        ))), view)
        rendered = plan.describe()
        assert "forall-probe (∀w)" in rendered
        assert "union (∨, 2 branches)" in rendered

    def test_estimates_are_rendered_per_operator(self, db):
        plan = compile_query("(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)",
                             db.view())
        for node, _depth in plan.walk():
            assert node.est >= 0.0
        assert "[est " in plan.describe()

    def test_lowering_never_raises_on_unsafe_queries(self, db):
        # Safety is the evaluator's check; compiling must stay total.
        query = Query(formula=atom("JOHN", "LIKES", "MARY"),
                      variables=(X,))
        compile_query(query, db.view())


class TestExecutorSemantics:
    """Every answer set must equal the reference engine's, including
    the corner cases the batch operators could plausibly get wrong."""

    def agree(self, database, text):
        query = parse_query(text) if isinstance(text, str) else text
        compiled = CompiledEvaluator(database.view()).evaluate(query)
        reference = Evaluator(database.view()).evaluate(query)
        assert compiled == reference
        return compiled

    def test_multi_conjunct_join(self, db):
        value = self.agree(
            db, "(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d) and (x, LIKES, y)")
        assert value == {("JOHN", "SALES", "MARY")}

    def test_union_deduplicates_across_branches(self, db):
        value = self.agree(db, "(x, OF-CLASS, EMPLOYEE) or (x, WORKS-FOR, SALES)")
        assert value == {("JOHN",), ("MARY",)}

    def test_repeated_variable_self_loop(self, db):
        assert self.agree(db, "(x, LIKES, x)") == {("SUE",)}

    def test_virtual_inequality_filter(self, db):
        value = self.agree(db, "(x, OF-CLASS, EMPLOYEE) and (x, ≠, JOHN)")
        assert value == {("MARY",)}

    def test_exists_shadows_outer_binding(self, db):
        # y is bound by the first conjunct and *re-quantified* inside
        # the ∃: the inner y must not leak, and the outer binding must
        # survive into the output.
        query = Query.of(And((
            atom(X, "LIKES", Y),
            exists(Y, atom(Y, "OF-CLASS", "MANAGER")),
        )), variables=(X, Y))
        value = self.agree(db, query)
        assert value == {("JOHN", "MARY"), ("SUE", "SUE")}

    def test_forall_anti_probe(self, db):
        # x likes every entity equal to MARY: the ∀ body must hold for
        # the *whole* active domain (w ≠ MARY covers everything else).
        query = Query.of(And((
            atom(X, "OF-CLASS", "EMPLOYEE"),
            forall(W, Or((atom(W, "≠", "MARY"), atom(X, "LIKES", W)))),
        )))
        assert self.agree(db, query) == {("JOHN",)}

    def test_propositions(self, db):
        evaluator = CompiledEvaluator(db.view())
        assert evaluator.evaluate(
            parse_query("(JOHN, OF-CLASS, EMPLOYEE)")) == {()}
        assert evaluator.evaluate(
            parse_query("(JOHN, OF-CLASS, MANAGER)")) == set()
        assert evaluator.ask(parse_query("(JOHN, OF-CLASS, EMPLOYEE)")) is True
        assert evaluator.ask(parse_query("(JOHN, OF-CLASS, MANAGER)")) is False

    def test_ask_rejects_open_queries(self, db):
        with pytest.raises(QueryError, match="not a proposition"):
            CompiledEvaluator(db.view()).ask(parse_query("(x, ∈, y)"))

    def test_empty_pipeline_stops_before_later_conjuncts(self, db):
        # The first conjunct yields nothing, so the ∀ is never reached:
        # no rows, no error — exactly like the reference engine.
        query = Query.of(And((
            atom(X, "OF-CLASS", "GHOST-CLASS"),
            forall(W, atom(X, "LIKES", W)),
        )))
        assert self.agree(db, query) == set()

    def test_unsafe_queries_raise_identically(self, db):
        # A disjunction whose branches bind different variables leaves
        # both unlimited: the safety check must reject it with the same
        # message under either engine.
        query = parse_query("(x, OF-CLASS, EMPLOYEE) or (y, WORKS-FOR, SALES)")
        with pytest.raises(QueryError) as compiled_error:
            CompiledEvaluator(db.view()).evaluate(query)
        with pytest.raises(QueryError) as reference_error:
            Evaluator(db.view()).evaluate(query)
        assert "unsafe query" in str(compiled_error.value)
        assert str(compiled_error.value) == str(reference_error.value)

    def test_database_defaults_to_compiled_engine(self, db):
        assert db.query_engine == "compiled"
        assert isinstance(db.evaluator(), CompiledEvaluator)
        assert db.stats()["query_engine"] == "compiled"
        reference = Database(query_engine="reference")
        assert not isinstance(reference.evaluator(), CompiledEvaluator)
        with pytest.raises(ValueError):
            Database(query_engine="vectorized")

    def test_snapshot_inherits_engine(self, db):
        reference = Database(query_engine="reference")
        reference.add("A", "∈", "B")
        assert reference.snapshot().query_engine == "reference"
        assert db.snapshot().query_engine == "compiled"


class TestPlannerDeferral:
    """Satellite regression: quantified conjuncts whose free variables
    are not yet bound must wait for their generators."""

    def test_generator_ordered_before_deferred_forall(self, db):
        quantified = forall(
            W, Or((atom(W, "≠", "MARY"), atom(X, "LIKES", W))))
        generator = atom(X, "OF-CLASS", "EMPLOYEE")
        ordered = order_conjuncts(
            [quantified, generator], set(), db.view())
        assert ordered == [generator, quantified]

    def test_deferred_exists_ranks_before_deferred_forall(self, db):
        # Both quantifiers depend on y, which the generator never
        # binds, so they stay deferred throughout — the ∃ (which can
        # still generate) must sort before the ∀ (which cannot).
        view = db.view()
        deferred_exists = exists(Z, atom(Y, "LIKES", Z))
        deferred_forall = forall(W, atom(Y, "LIKES", W))
        generator = atom(X, "OF-CLASS", "EMPLOYEE")
        ordered = order_conjuncts(
            [deferred_forall, deferred_exists, generator], set(), view)
        assert ordered == [generator, deferred_exists, deferred_forall]

    def test_deferral_end_to_end_on_both_engines(self, db):
        # Before the fix, every conjunct cost OPAQUE_COST and the tie
        # break evaluated the ∀ first — raising the runtime range
        # restriction error on a perfectly safe query.
        query = Query.of(And((
            forall(W, Or((atom(W, "≠", "MARY"), atom(X, "LIKES", W)))),
            atom(X, "OF-CLASS", "EMPLOYEE"),
        )))
        assert CompiledEvaluator(db.view()).evaluate(query) == {("JOHN",)}
        assert Evaluator(db.view()).evaluate(query) == {("JOHN",)}


class TestSucceedsCache:
    # Named for the result cache it used to pin (deleted in PR 23).
    def test_database_succeeds(self, db):
        assert db.succeeds("(x, WORKS-FOR, SALES)") is True
        assert db.succeeds("(x, WORKS-FOR, NOWHERE)") is False


class TestDeadlines:
    """Satellite: deadline cancellation through the direct API (the TCP
    path is covered in ``test_serve_net.py``)."""

    def test_zero_budget_cancels_at_operator_entry(self, db):
        evaluator = CompiledEvaluator(db.view())
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                evaluator.evaluate(
                    parse_query("(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)"))

    def test_mid_plan_cancellation_on_a_large_join(self):
        database = Database()
        database.add_facts([(f"E{i}", "MEMBER-OF", f"CLS{i % 3}")
                            for i in range(2000)])
        evaluator = CompiledEvaluator(database.view())
        query = parse_query("(x, MEMBER-OF, c) and (y, MEMBER-OF, c)")
        with deadline_scope(1e-5):
            with pytest.raises(DeadlineExceeded):
                evaluator.evaluate(query)
        # Outside the scope the same plan runs to completion.
        assert len(evaluator.evaluate(query)) > 1_000_000

    def test_forall_chunks_check_the_deadline(self, db):
        query = Query.of(And((
            atom(X, "OF-CLASS", "EMPLOYEE"),
            forall(W, Or((atom(W, "≠", "MARY"), atom(X, "LIKES", W)))),
        )))
        evaluator = CompiledEvaluator(db.view())
        with deadline_scope(0.0):
            with pytest.raises(DeadlineExceeded):
                evaluator.evaluate(query)


class TestAdaptiveReplan:
    """When a conjunct's actual fanout diverges >10× from its estimate,
    the pipeline re-ranks the remaining children."""

    @staticmethod
    def _divergent_database():
        # c2 = (x, R, y) is estimated at count(R)/10 ≈ 50 rows per
        # binding, but every member has exactly ONE R edge (the other
        # 480 R facts hang off filler sources), so the actual fanout is
        # 1 — an under-estimate divergence of ~50×.
        database = Database()
        facts = []
        for i in range(20):
            facts.append((f"M{i}", "A0", "T"))
            facts.append((f"M{i}", "R", f"N{i}"))
            facts.append((f"N{i}", "S", f"P{i}"))
            facts.append((f"M{i}", "B", f"P{i}"))
        facts += [(f"FR{j}", "R", f"GR{j}") for j in range(480)]
        facts += [(f"FS{j}", "S", f"GS{j}") for j in range(580)]
        facts += [(f"FB{j}", "B", f"GB{j}") for j in range(680)]
        database.add_facts(facts)
        return database

    def test_replan_fires_and_answers_stay_correct(self):
        database = self._divergent_database()
        query = parse_query(
            "(x, A0, T) and (x, R, y) and (y, S, z) and (x, B, z)")
        evaluator = CompiledEvaluator(database.view())
        with use_telemetry(Telemetry()) as telemetry:
            value, run = evaluator.evaluate_with_stats(query)
        assert run.replans >= 1
        assert telemetry.counters["exec.replans"] == run.replans
        assert "adaptive re-orders" in run.describe()
        expected = {(f"M{i}", f"N{i}", f"P{i}") for i in range(20)}
        assert value == expected
        assert Evaluator(database.view()).evaluate(query) == expected

    def test_well_estimated_pipeline_does_not_replan(self, db):
        evaluator = CompiledEvaluator(db.view())
        _value, run = evaluator.evaluate_with_stats(
            parse_query("(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)"))
        assert run.replans == 0
        assert "adaptive re-orders" not in run.describe()


class TestExplainCompiled:
    def test_explain_includes_plan_tree(self, db):
        rendered = explain(db.view(),
                           "(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)",
                           engine="compiled").render()
        assert "compiled plan:" in rendered
        assert "atom-join" in rendered

    def test_reference_explain_has_no_plan_tree(self, db):
        rendered = explain(db.view(),
                           "(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)",
                           engine="reference").render()
        assert "compiled plan:" not in rendered

    def test_explain_analyze_reports_per_operator_actuals(self, db):
        analyzed = explain_analyze(
            db.view(), "(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)",
            engine="compiled")
        assert analyzed.executed is True
        assert analyzed.value == {("JOHN", "SALES"), ("MARY", "SALES")}
        labels = [step.formula for step in analyzed.steps]
        assert any("pipeline" in label for label in labels)
        assert any("atom-join" in label for label in labels)
        pipeline = next(step for step in analyzed.steps
                        if "pipeline" in step.formula)
        assert pipeline.actual_rows == 2

    def test_database_explain_uses_configured_engine(self, db):
        assert "compiled plan:" in db.explain(
            "(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)").render()
        reference = Database(query_engine="reference")
        reference.add("JOHN", "OF-CLASS", "EMPLOYEE")
        assert "compiled plan:" not in reference.explain(
            "(x, OF-CLASS, EMPLOYEE)").render()


class TestBindingTable:
    def test_unit_table_is_the_join_identity(self):
        table = unit_table()
        assert table.columns == ()
        assert table.rows == [()]
        assert len(table) == 1

    def test_projection_and_repr(self):
        table = BindingTable((X, Y), [("A", "B"), ("C", "D")])
        assert table.project_positions([Y, X]) == [1, 0]
        assert "x, y" in repr(table)
        assert "2 rows" in repr(table)

    def test_execute_plan_returns_stats_in_preorder(self, db):
        plan = compile_query("(x, OF-CLASS, EMPLOYEE) and (x, WORKS-FOR, d)",
                             db.view())
        table, run = execute_plan(plan, db.view())
        assert len(table) == 2
        assert [stats.op for stats in run.operators] == [
            "pipeline", "atom-join", "atom-join"]
        assert run.operators[0].depth == 0
        assert all(stats.depth == 1 for stats in run.operators[1:])
        payload = run.operators[1].as_dict()
        assert set(payload) == {"label", "op", "depth", "est", "calls",
                                "in_rows", "out_rows"}
