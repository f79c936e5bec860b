"""The observability layer: spans, counters, exporters, EXPLAIN ANALYZE.

Covers the spine itself (nesting, timing monotonicity,
the disabled no-op path), the per-layer instrumentation
(store, closure engine, evaluator, browsers), the exporters
(JSON-lines round-trip, text summary), and the plan-vs-actual
rendering of ``explain_analyze``.
"""

from __future__ import annotations

import gc
import io
import time

import pytest

from repro.core.facts import Fact
from repro.core.store import FactStore
from repro.datasets import paper, university
from repro.db import Database
from repro.datasets.synthetic import hierarchy_facts, membership_facts
from repro.obs import (
    NULL_SPAN,
    NULL_TELEMETRY,
    Telemetry,
    active_telemetry,
    disable_telemetry,
    enable_telemetry,
    merge_snapshots,
    parse_prometheus,
    pattern_shape,
    read_jsonl,
    summary,
    to_events,
    telemetry_enabled,
    to_prometheus,
    use_telemetry,
    write_jsonl,
)
from repro.obs import telemetry as telemetry_module
from repro.query.parser import parse_template
from repro.rules.builtin import STANDARD_RULES
from repro.rules.engine import APPLY, semi_naive_closure
from repro.rules.rule import RelationshipClassifier, RuleContext
from repro.storage.session import CHECKPOINT_BUCKETS_MS, open_database


@pytest.fixture(autouse=True)
def _pristine_global_spine():
    """Every test starts and ends with telemetry off and no global
    spine installed, whatever it did in between."""
    saved = (telemetry_module.TELEMETRY, telemetry_module.ENABLED)
    telemetry_module.TELEMETRY, telemetry_module.ENABLED = NULL_TELEMETRY, False
    yield
    telemetry_module.TELEMETRY, telemetry_module.ENABLED = saved
    telemetry_module._sync_collector_hook()  # noqa: SLF001


def _context(facts):
    return RuleContext(classifier=RelationshipClassifier(FactStore(facts)))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_preorder_walk(self):
        telemetry = Telemetry()
        with telemetry.span("outer", kind="test") as outer:
            with telemetry.span("middle") as middle:
                with telemetry.span("inner") as inner:
                    pass
            with telemetry.span("sibling") as sibling:
                pass
        assert list(telemetry.roots) == [outer]
        assert middle.parent is outer
        assert inner.parent is middle
        assert sibling.parent is outer
        assert outer.children == [middle, sibling]
        assert [s.name for s in outer.walk()] == [
            "outer", "middle", "inner", "sibling"]
        assert (outer.depth, middle.depth, inner.depth) == (0, 1, 2)
        assert outer.attributes == {"kind": "test"}

    def test_timing_monotonicity(self):
        telemetry = Telemetry()
        with telemetry.span("parent") as parent:
            with telemetry.span("child") as child:
                time.sleep(0.005)
        assert child.finished and parent.finished
        assert child.wall > 0
        # A child's wall time can never exceed its parent's.
        assert parent.wall >= child.wall
        assert parent.cpu >= 0 and child.cpu >= 0

    def test_set_attaches_attributes(self):
        telemetry = Telemetry()
        with telemetry.span("s", a=1) as span:
            span.set(b=2)
            span.set(a=3)
        assert span.attributes == {"a": 3, "b": 2}

    def test_spans_filter_by_name(self):
        telemetry = Telemetry()
        with telemetry.span("a"):
            with telemetry.span("b"):
                pass
        with telemetry.span("b"):
            pass
        assert len(telemetry.spans()) == 3
        assert len(telemetry.spans("b")) == 2
        assert telemetry.spans("missing") == []

    def test_span_closes_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.span("failing") as span:
                raise ValueError("boom")
        assert span.finished
        assert telemetry._open.stack == []


# ----------------------------------------------------------------------
# Counters, gauges, conjunct records
# ----------------------------------------------------------------------
class TestCountersAndGauges:
    def test_count_and_gauge(self):
        telemetry = Telemetry()
        telemetry.count("hits")
        telemetry.count("hits", 4)
        telemetry.gauge("temp", 1.5)
        telemetry.gauge("temp", 2.5)
        assert telemetry.counters == {"hits": 5}
        assert telemetry.gauges["temp"].last == 2.5

    def test_record_conjunct_aggregates(self):
        telemetry = Telemetry()
        telemetry.record_conjunct("(?x, R, ?y)", 4.0, 3)
        telemetry.record_conjunct("(?x, R, ?y)", 2.0, 1)
        stats = telemetry.conjuncts["(?x, R, ?y)"]
        assert (stats.evals, stats.rows) == (2, 4)
        assert stats.estimate_mean == 3.0
        assert stats.rows_mean == 2.0


# ----------------------------------------------------------------------
# The disabled path
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_null_telemetry_is_inert(self):
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.gauge("y", 1.0)
        NULL_TELEMETRY.record_conjunct("k", 1.0, 2)
        assert NULL_TELEMETRY.counters == {}
        assert NULL_TELEMETRY.gauges == {}
        assert NULL_TELEMETRY.spans() == []

    def test_null_span_identity(self):
        # Every span request yields the same no-op object, so the
        # disabled path allocates nothing.
        cm = NULL_TELEMETRY.span("anything", a=1)
        assert cm is NULL_SPAN
        with cm as span:
            span.set(ignored=True)
        assert span is NULL_SPAN
        assert span.attributes == {}

    def test_enable_disable_cycle(self):
        assert not telemetry_enabled()
        telemetry = enable_telemetry()
        assert telemetry_enabled()
        assert isinstance(telemetry, Telemetry)
        telemetry.count("kept")
        disable_telemetry()
        assert not telemetry_enabled()
        # Data stays readable after disabling …
        assert active_telemetry().counters == {"kept": 1}
        # … and survives a plain re-enable, but not a fresh one.
        assert enable_telemetry() is telemetry
        assert enable_telemetry(fresh=True) is not telemetry

    def test_use_telemetry_restores_state(self):
        scoped = Telemetry()
        with use_telemetry(scoped) as telemetry:
            assert telemetry is scoped
            assert telemetry_enabled()
            assert active_telemetry() is scoped
        assert not telemetry_enabled()
        assert active_telemetry() is NULL_TELEMETRY

    def test_disabled_telemetry_collects_nothing(self):
        db = paper.load()
        db.query("(x, EARNS, y)")
        assert active_telemetry() is NULL_TELEMETRY
        assert active_telemetry().counters == {}


# ----------------------------------------------------------------------
# The cyclic collector on the spine
# ----------------------------------------------------------------------
def repro_gc_hooks() -> list:
    return [callback for callback in gc.callbacks
            if getattr(callback, "__module__", "").startswith("repro")]


def collections(snapshot) -> int:
    return sum(value for name, value in snapshot["counters"].items()
               if name.startswith("gc.collections."))


class TestCollectorHook:
    def test_a_forced_collection_shows_up_in_the_snapshot(self):
        telemetry = enable_telemetry(fresh=True)
        try:
            before = telemetry.snapshot()["counters"].get(
                "gc.collections.gen2", 0)
            gc.collect()
            snapshot = telemetry.snapshot()
        finally:
            disable_telemetry()
        assert snapshot["counters"]["gc.collections.gen2"] == before + 1
        pauses = snapshot["histograms"]["gc.pause_us"]
        assert pauses["count"] == collections(snapshot)
        assert pauses["sum"] > 0

    def test_disable_removes_the_hook(self):
        telemetry = enable_telemetry(fresh=True)
        assert len(repro_gc_hooks()) == 1
        enable_telemetry()
        assert len(repro_gc_hooks()) == 1
        disable_telemetry()
        assert repro_gc_hooks() == []
        counted = collections(telemetry.snapshot())
        gc.collect()
        assert collections(telemetry.snapshot()) == counted

    def test_a_scoped_spine_holds_the_hook_for_its_block(self):
        with use_telemetry(Telemetry()) as telemetry:
            assert len(repro_gc_hooks()) == 1
            gc.collect()
        assert repro_gc_hooks() == []
        assert telemetry.snapshot()["counters"]["gc.collections.gen2"] >= 1

    def test_a_pass_inside_the_registry_lock_is_queued(self):
        """The collector can run inside an allocation the registry makes
        under its own lock: the pass must wait for the next snapshot,
        not for the lock (which would deadlock)."""
        telemetry = Telemetry()
        with telemetry._lock:  # noqa: SLF001
            telemetry.record_collection(0, 12.0)
        assert telemetry.counters == {}
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {"gc.collections.gen0": 1}
        assert snapshot["histograms"]["gc.pause_us"]["sum"] == 12.0

    def test_collector_names_merge_and_export(self):
        one, two = Telemetry(), Telemetry()
        one.record_collection(0, 40.0)
        two.record_collection(0, 60.0)
        two.record_collection(2, 30_000.0)
        merged = merge_snapshots([one.snapshot(), two.snapshot()])
        assert merged["counters"] == {"gc.collections.gen0": 2,
                                      "gc.collections.gen2": 1}
        assert merged["histograms"]["gc.pause_us"]["count"] == 3
        series = parse_prometheus(to_prometheus(merged))
        assert series["repro_gc_collections_gen2_total"] == 1
        assert series["repro_gc_pause_us_count"] == 3


# ----------------------------------------------------------------------
# pattern_shape
# ----------------------------------------------------------------------
def test_pattern_shape():
    assert pattern_shape(parse_template("(JOHN, EARNS, y)")) == "sr"
    assert pattern_shape(parse_template("(x, y, z)")) == "open"
    assert pattern_shape(parse_template("(JOHN, EARNS, SALARY)")) == "srt"
    assert pattern_shape(parse_template("(x, EARNS, y)")) == "r"


# ----------------------------------------------------------------------
# Layer instrumentation
# ----------------------------------------------------------------------
class TestStoreInstrumentation:
    def test_add_remove_lookup_counters(self):
        with use_telemetry(Telemetry()) as telemetry:
            store = FactStore()
            store.add(Fact("A", "R", "B"))
            store.add(Fact("A", "R", "B"))  # duplicate: not counted
            store.add(Fact("A", "R", "C"))
            store.discard(Fact("A", "R", "C"))
            list(store.match(parse_template("(A, R, x)")))
        assert telemetry.counters["store.adds"] == 2
        assert telemetry.counters["store.removes"] == 1
        assert telemetry.counters["store.lookups"] >= 1

    def test_solutions_hits_keyed_by_shape(self):
        with use_telemetry(Telemetry()) as telemetry:
            store = FactStore([Fact("A", "R", "B"), Fact("A", "R", "C")])
            found = list(store.solutions(parse_template("(A, R, x)"), {}))
        assert len(found) == 2
        assert telemetry.counters["store.solutions.calls.sr"] == 1
        assert telemetry.counters["store.solutions.hits.sr"] == 2


class TestEngineInstrumentation:
    def _workload(self):
        tree, leaves = hierarchy_facts(3, 2)
        facts = list(tree) + membership_facts(leaves, 2)
        facts.append(Fact("C0", "HAS-POLICY", "GENERAL-POLICY"))
        return facts

    def test_round_spans_and_counters(self):
        facts = self._workload()
        with use_telemetry(Telemetry()) as telemetry:
            result = semi_naive_closure(facts, STANDARD_RULES,
                                        _context(facts))
        closure_spans = telemetry.spans("closure.semi_naive")
        assert len(closure_spans) == 1
        assert closure_spans[0].attributes["derived"] == \
            result.derived_count
        rounds = telemetry.spans("closure.round")
        assert len(rounds) == result.iterations
        assert telemetry.counters["engine.rounds"] == result.iterations
        # Each round records its delta sizes.
        for span in rounds:
            assert "delta_in" in span.attributes
            assert "fresh_out" in span.attributes

    def test_rule_times_sum_to_closure_time(self):
        """The acceptance bound: per-rule cumulative seconds (plus the
        reserved apply entry) partition the fixpoint loop's total time
        to within ±5%."""
        import random

        tree, leaves = hierarchy_facts(4, 2)
        facts = list(tree) + membership_facts(leaves, 2)
        rng = random.Random(0)
        entities = [f"C{i}" for i in range(31)]
        for index in range(20):
            facts.append(Fact(rng.choice(entities), f"R{index % 8}",
                              rng.choice(entities)))
        context = _context(facts)
        semi_naive_closure(facts, STANDARD_RULES, context)  # warm caches
        with use_telemetry(Telemetry()) as telemetry:
            result = semi_naive_closure(facts, STANDARD_RULES, context)
        total = telemetry.gauges["engine.closure_seconds"].last
        accounted = sum(result.rule_times.values())
        assert APPLY in result.rule_times
        assert total > 0
        assert abs(1.0 - accounted / total) <= 0.05

    def test_rule_times_empty_without_telemetry(self):
        facts = self._workload()
        result = semi_naive_closure(facts, STANDARD_RULES, _context(facts))
        assert result.rule_times == {}

    def test_one_delete_span_per_removal_carries_its_stats(
            self, monkeypatch):
        """One ``remove`` over a service is exactly one
        ``closure.delete`` span, and its three counts are the
        ``DeletionStats`` Delete/Rederive returned."""
        import dataclasses

        import repro.db as db_module
        from repro.serve import DatabaseService

        returned = []
        real = db_module.delete_with_rederivation

        def recording(*args, **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(db_module, "delete_with_rederivation",
                            recording)
        service = DatabaseService(paper.load())
        try:
            service.add("SUE", "∈", "EMPLOYEE")
            with use_telemetry(Telemetry()) as telemetry:
                assert service.remove("SUE", "∈", "EMPLOYEE")
        finally:
            service.close()
        (span,) = telemetry.spans("closure.delete")
        (stats,) = returned
        assert stats.overdeleted > 1      # SUE's inherited facts fell too
        assert span.attributes == dataclasses.asdict(stats)

    def test_delete_span_counts_the_rederive_joins(self):
        """(A, R, X) survives its own removal through syn-source: the
        span counts the head unifications tried and the pivot facts fed
        to compiled joins, and the counter adds the same candidates."""
        db = Database(with_axioms=False)
        db.add_facts([Fact("A", "≈", "B"), Fact("A", "R", "X"),
                      Fact("B", "R", "X")])
        db.closure()
        with use_telemetry(Telemetry()) as telemetry:
            assert db.remove_fact(Fact("A", "R", "X"))
        (span,) = telemetry.spans("closure.delete")
        assert span.attributes["rederived"] == 1
        assert span.attributes["rederive_heads"] >= 1
        assert span.attributes["rederive_candidates"] >= 1
        assert (telemetry.counters["dispatch.rederive_candidates"]
                == span.attributes["rederive_candidates"])

    def test_removal_makes_no_telemetry_call_when_off(self, monkeypatch):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"telemetry call while off: {name}")

        db = paper.load()
        db.add("SUE", "∈", "EMPLOYEE")
        db.closure()
        monkeypatch.setattr(telemetry_module, "TELEMETRY", Untouchable())
        assert db.remove_fact(Fact("SUE", "∈", "EMPLOYEE"))
        assert not db.ask("(SUE, EARNS, SALARY)")


class TestQueryInstrumentation:
    def test_conjunct_records_match_execution(self):
        db = paper.load()
        db.closure()  # materialize outside the traced region
        with use_telemetry(Telemetry()) as telemetry:
            value = db.query("(x, ∈, EMPLOYEE) and (x, EARNS, y)")
        stats = telemetry.conjuncts["(?x, ∈, EMPLOYEE)"]
        assert stats.evals == 1
        assert stats.rows == 3  # JOHN, TOM, MARY
        earns = telemetry.conjuncts["(?x, EARNS, ?y)"]
        # The compiled engine evaluates each conjunct once over the
        # whole binding table (set-at-a-time), not once per binding.
        assert earns.evals == 1
        assert earns.rows == len(value)
        spans = telemetry.spans("query.evaluate")
        assert len(spans) == 1
        assert spans[0].attributes["rows"] == len(value)

    def test_conjunct_records_reference_engine(self):
        db = paper.load(Database(query_engine="reference"))
        db.closure()
        with use_telemetry(Telemetry()) as telemetry:
            value = db.query("(x, ∈, EMPLOYEE) and (x, EARNS, y)")
        earns = telemetry.conjuncts["(?x, EARNS, ?y)"]
        assert earns.evals == 3  # tuple-at-a-time: once per bound x
        assert earns.rows == len(value)

    def test_forall_domain_gauge(self):
        db = university.load()
        db.closure()
        with use_telemetry(Telemetry()) as telemetry:
            db.query("(z, ∈, QUARTERBACK) and forall y: (z, ATTENDED, y)")
        # One anti-probe over both quarterback bindings (JAKE, BOB).
        assert telemetry.counters["exec.forall.keys"] == 2
        assert telemetry.gauges["query.forall.domain_size"].last >= 2

    def test_forall_evals_reference_engine(self):
        db = university.load(Database(query_engine="reference"))
        db.closure()
        with use_telemetry(Telemetry()) as telemetry:
            db.query("(z, ∈, QUARTERBACK) and forall y: (z, ATTENDED, y)")
        # Evaluated once per quarterback binding (JAKE, BOB).
        assert telemetry.counters["query.forall.evals"] == 2
        assert telemetry.gauges["query.forall.domain_size"].last >= 2


class TestBrowseInstrumentation:
    def test_navigation_span_and_counter(self):
        db = paper.load()
        db.closure()
        with use_telemetry(Telemetry()) as telemetry:
            result = db.navigate("(JOHN, *, *)")
        assert telemetry.counters["browse.navigations"] == 1
        span = telemetry.spans("browse.navigate")[0]
        assert span.attributes["facts"] == len(result.facts)

    def test_probe_counters(self):
        db = university.load()
        with use_telemetry(Telemetry()) as telemetry:
            result = db.probe(university.STUDENTS_LOVE_FREE)
        assert telemetry.counters["browse.probes"] == 1
        assert telemetry.counters["browse.probe.waves"] == len(result.waves)
        attempted = sum(len(wave.attempted) for wave in result.waves)
        assert telemetry.counters["browse.probe.retractions"] == attempted


class TestStorageInstrumentation:
    TORN = '{"op": "add", "fact": ["C"'

    def test_checkpoint_and_recovery_series(self, tmp_path):
        directory = tmp_path / "d"
        db, session = open_database(directory)
        db.add("A", "R", "B")
        with use_telemetry(Telemetry()) as telemetry:
            session.checkpoint()
            session.checkpoint()
        session.close()
        checkpoints = telemetry.histograms["storage.checkpoint"]
        assert checkpoints.count == 2 and checkpoints.sum > 0
        assert checkpoints.bounds == CHECKPOINT_BUCKETS_MS
        size = (directory / "snapshot.json").stat().st_size
        assert telemetry.gauges["storage.snapshot_bytes"].last == size

        with open(directory / "journal.jsonl", "a", encoding="utf-8") as h:
            h.write(self.TORN)
        with use_telemetry(Telemetry()) as telemetry:
            _db, session = open_database(directory)
            session.close()
            _db, session = open_database(directory)     # already whole
            session.close()
        assert telemetry.gauges["storage.recover_s"].count == 2
        assert telemetry.gauges["storage.recover_s"].max > 0
        assert telemetry.counters["storage.journal_repaired_bytes"] \
            == len(self.TORN)

    def test_nothing_is_recorded_while_telemetry_is_off(self, tmp_path):
        telemetry = enable_telemetry(fresh=True)
        disable_telemetry()             # the spine stays installed, off
        db, session = open_database(tmp_path / "d")
        db.add("A", "R", "B")
        session.checkpoint()
        session.close()
        with open(tmp_path / "d" / "journal.jsonl", "w") as handle:
            handle.write(self.TORN)
        open_database(tmp_path / "d")[1].close()
        assert active_telemetry() is telemetry
        snapshot = telemetry.snapshot()
        assert not [name for kind in ("counters", "gauges", "histograms")
                    for name in snapshot[kind] if name.startswith("storage.")]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExport:
    def _collected(self):
        telemetry = Telemetry()
        with telemetry.span("outer", label="x"):
            with telemetry.span("inner"):
                pass
        telemetry.count("events", 3)
        telemetry.gauge("level", 0.5)
        telemetry.record_conjunct("(?x, R, ?y)", 2.0, 4)
        return telemetry

    def test_jsonl_round_trip(self, tmp_path):
        telemetry = self._collected()
        path = tmp_path / "trace.jsonl"
        written = write_jsonl(telemetry, str(path))
        events = read_jsonl(str(path))
        assert len(events) == written
        assert events == to_events(telemetry)
        # The span tree is reconstructible from the parent references.
        spans = [e for e in events if e["type"] == "span"]
        assert spans[0]["parent"] is None
        assert spans[1]["parent"] == spans[0]["id"]
        assert [e["type"] for e in events] == [
            "span", "span", "counter", "gauge", "conjunct"]

    def test_jsonl_file_handle(self):
        telemetry = self._collected()
        buffer = io.StringIO()
        write_jsonl(telemetry, buffer)
        events = read_jsonl(io.StringIO(buffer.getvalue()))
        assert events == to_events(telemetry)

    def test_summary_sections(self):
        text = summary(self._collected(), title="test run")
        assert "== test run ==" in text
        assert "outer" in text and "inner" in text
        assert "events" in text
        assert "level" in text
        assert "(?x, R, ?y)" in text

    def test_summary_empty(self):
        assert "(nothing collected)" in summary(Telemetry())


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------
class TestExplainAnalyze:
    def test_golden_rendering_on_paper_query(self):
        db = paper.load()
        analyzed = db.explain_analyze("(x, ∈, EMPLOYEE) and (x, EARNS, y)")
        text = analyzed.render()
        lines = [line.rstrip() for line in text.splitlines()]
        # Everything except the (non-deterministic) timing line is
        # golden.  The default engine is compiled: the explanation
        # carries the operator tree and the analyzed steps are the
        # plan's operators with est vs actual rows.
        assert lines[0] == "query: Q(x, y) = ((?x, ∈, EMPLOYEE) ∧" \
            " (?x, EARNS, ?y))"
        assert lines[1] == "safety: ok"
        assert lines[2] == "initial conjunct order:"
        assert lines[3] == "  1. (?x, ∈, EMPLOYEE)   [est 3.1; bound: -]"
        assert lines[4] == "  2. (?x, EARNS, ?y)   [est 1.4; bound: x]"
        assert lines[5] == "compiled plan: Q(x, y) = ((?x, ∈, EMPLOYEE)" \
            " ∧ (?x, EARNS, ?y))"
        assert lines[6] == "  pipeline (∧, 2 parts)   [est 3.1]"
        assert lines[7] == "    atom-join (?x, ∈, EMPLOYEE)   [est 3.1]"
        assert lines[8] == "    atom-join (?x, EARNS, ?y)   [est 1.4]"
        assert lines[10] == "plan vs actual:"
        assert lines[13] == \
            "  1  pipeline (∧, 2 parts)        3.1       9            1"
        assert lines[14] == \
            "  2  atom-join (?x, ∈, EMPLOYEE)  3.1       3            1"
        assert lines[15] == \
            "  3  atom-join (?x, EARNS, ?y)    1.4       9            1"
        assert lines[16] == "result rows: 9"
        assert lines[17].startswith("wall: ")
        assert analyzed.rows == 9
        assert analyzed.value == db.query("(x, ∈, EMPLOYEE) and (x, EARNS, y)")

    def test_golden_rendering_reference_engine(self):
        db = paper.load(Database(query_engine="reference"))
        analyzed = db.explain_analyze("(x, ∈, EMPLOYEE) and (x, EARNS, y)")
        lines = [line.rstrip() for line in analyzed.render().splitlines()]
        assert lines[6] == "plan vs actual:"
        assert lines[7] == \
            "  #  conjunct           est cost  actual rows  evals"
        assert lines[9] == "  1  (?x, ∈, EMPLOYEE)  3.1       3            1"
        assert lines[10] == "  2  (?x, EARNS, ?y)    1.4       9            3"
        assert lines[11] == "result rows: 9"
        assert analyzed.rows == 9

    def test_unsafe_query_not_executed(self):
        from repro.core.facts import var
        from repro.query.ast import Or, Query, atom

        x, y = var("x"), var("y")
        unsafe = Query.of(Or((atom(x, "R", y), atom(x, "R", "B"))), (x, y))
        db = paper.load()
        analyzed = db.explain_analyze(unsafe)
        assert not analyzed.executed
        assert "not executed" in analyzed.render()

    def test_leaves_global_telemetry_untouched(self):
        db = paper.load()
        db.explain_analyze("(x, EARNS, y)")
        assert not telemetry_enabled()
        assert active_telemetry() is NULL_TELEMETRY
