"""Probing and automatic retraction tests (§5), including the paper's
worked examples (E2, E3) and soundness properties of broadening."""

from __future__ import annotations

import pytest

from repro.browse.hierarchy import GeneralizationHierarchy
from repro.browse.retraction import (
    ConjunctiveQuery,
    RetractedQuery,
    probe,
    retraction_set,
)
from repro.core.entities import BOTTOM, ISA, MEMBER, TOP
from repro.core.errors import QueryError
from repro.core.facts import Fact, Template, var
from repro.db import Database
from repro.datasets import university
from repro.datasets.synthetic import deep_retraction_workload
from repro.query.parser import parse_query

X, Z = var("x"), var("z")


class TestConjunctiveQuery:
    def test_from_text(self):
        cq = ConjunctiveQuery.from_query(
            "(STUDENT, LOVE, z) and (z, COSTS, FREE)")
        assert len(cq.templates) == 2
        assert cq.free == (var("z"),)

    def test_from_single_template(self):
        cq = ConjunctiveQuery.from_query("(z, LOVES, OPERA)")
        assert cq.templates == (Template(var("z"), "LOVES", "OPERA"),)

    def test_exists_unwrapped(self):
        cq = ConjunctiveQuery.from_query(
            "exists x: (x, in, BOOK) and (x, AUTHOR, y)")
        assert cq.free == (var("y"),)
        assert len(cq.templates) == 2

    def test_disjunction_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery.from_query("(A, R, B) or (C, S, D)")

    def test_to_query_roundtrip(self):
        cq = ConjunctiveQuery.from_query(
            "exists x: (x, in, BOOK) and (x, AUTHOR, y)")
        query = cq.to_query()
        assert query.variables == (var("y"),)


class TestRetractionSet:
    def _set_for(self, text, facts):
        db = Database()
        db.add_facts(facts)
        cq = ConjunctiveQuery.from_query(text)
        retracted = RetractedQuery(query=cq, path=())
        return retraction_set(retracted, db.hierarchy())

    def test_opera_example(self):
        """§5.1: the three minimally broader queries of
        (z, LOVES, OPERA)."""
        candidates = self._set_for("(z, LOVES, OPERA)", [
            Fact("LOVES", ISA, "ENJOYS"),
            Fact("OPERA", ISA, "MUSIC"),
            Fact("OPERA", ISA, "THEATER"),
        ])
        queries = {c.query.templates[0] for c in candidates}
        assert queries == {
            Template(var("z"), "ENJOYS", "OPERA"),
            Template(var("z"), "LOVES", "MUSIC"),
            Template(var("z"), "LOVES", "THEATER"),
        }

    def test_source_position_specializes(self):
        """§5.2: FRESHMAN instead of STUDENT."""
        candidates = self._set_for("(STUDENT, LOVE, z)", [
            Fact("FRESHMAN", ISA, "STUDENT"),
            Fact("STUDENT", "LOVE", "COFFEE"),
        ])
        replacements = {
            (c.path[0].old, c.path[0].new) for c in candidates}
        assert ("STUDENT", "FRESHMAN") in replacements

    def test_relationship_with_no_parent_goes_to_top(self):
        candidates = self._set_for("(x, COSTS, FREE)", [
            Fact("COFFEE", "COSTS", "CHEAP"),
            Fact("FREE", ISA, "CHEAP"),
        ])
        replacements = {
            (c.path[0].old, c.path[0].new) for c in candidates}
        assert ("COSTS", TOP) in replacements
        assert ("FREE", "CHEAP") in replacements

    def test_unknown_entity_never_replaced(self):
        candidates = self._set_for("(STUDENT, LUVS, z)", [
            Fact("FRESHMAN", ISA, "STUDENT"),
            Fact("STUDENT", "LOVE", "COFFEE"),
        ])
        for candidate in candidates:
            for step in candidate.path:
                assert step.old != "LUVS"

    def test_membership_source_not_specialized(self):
        """(x, ∈, C) has a variable source; with a ground source no
        sound rule specializes it, so no source retraction appears."""
        candidates = self._set_for("(JOHN, in, EMPLOYEE)", [
            Fact("JOHN", MEMBER, "EMPLOYEE"),
            Fact("INTERN", ISA, "JOHN"),  # would be a source cover
            Fact("EMPLOYEE", ISA, "PERSON"),
        ])
        positions = {c.path[0].position for c in candidates}
        assert "source" not in positions
        assert "target" in positions

    def test_weak_template_deleted(self):
        candidates = self._set_for(
            "(STUDENT, LOVE, z) and (z, TOP, x)", [
                Fact("STUDENT", "LOVE", "COFFEE"),
            ])
        deletions = [c for c in candidates
                     if c.path and c.path[0].kind == "delete"]
        assert deletions
        assert len(deletions[0].query.templates) == 1

    def test_weak_single_template_query_not_emptied(self):
        db = Database()
        db.add("A", "R", "B")
        cq = ConjunctiveQuery(
            templates=(Template(var("x"), TOP, var("y")),),
            free=(var("x"), var("y")))
        candidates = retraction_set(
            RetractedQuery(query=cq, path=()), db.hierarchy())
        assert candidates == []

    def test_deletion_drops_orphaned_free_variables(self):
        db = Database()
        db.add("STUDENT", "LOVE", "COFFEE")
        cq = ConjunctiveQuery(
            templates=(Template("STUDENT", "LOVE", var("z")),
                       Template(var("q"), TOP, var("z2"))),
            free=(var("z"), var("q")))
        candidates = retraction_set(
            RetractedQuery(query=cq, path=()), db.hierarchy())
        deletion = next(
            c for c in candidates if c.path[0].kind == "delete")
        assert deletion.query.free == (var("z"),)


class TestProbeWorkedExamples:
    def test_students_love_free_menu(self, university_db):
        """E3: the §5.2 retraction menu, verbatim shape."""
        result = university_db.probe(university.STUDENTS_LOVE_FREE)
        assert not result.succeeded
        assert len(result.waves) == 1
        descriptions = [s.describe() for s in result.successes]
        assert descriptions == [
            "FRESHMAN instead of STUDENT",
            "CHEAP instead of FREE",
        ]
        menu = result.menu()
        assert menu.splitlines()[0] == "Query failed. Retrying"
        assert "1. Success with FRESHMAN instead of STUDENT" in menu
        assert "2. Success with CHEAP instead of FREE" in menu
        assert menu.splitlines()[-1] == "You may select"

    def test_menu_selection_returns_values(self, university_db):
        result = university_db.probe(university.STUDENTS_LOVE_FREE)
        assert result.select(1) == {("CAMPUS-CONCERTS",)}
        assert result.select(2) == {("COFFEE",)}

    def test_quarterback_example(self, university_db):
        result = university_db.probe(university.QUARTERBACKS_FROM_USC)
        assert not result.succeeded
        described = {s.describe() for s in result.successes}
        assert "ATTENDED instead of GRADUATE-OF" in described
        values = {
            s.describe(): s.value for s in result.successes}
        assert values["ATTENDED instead of GRADUATE-OF"] == {("JAKE",)}

    def test_successful_query_probes_trivially(self, university_db):
        result = university_db.probe("(ANNA, LOVES, OPERA)")
        assert result.succeeded
        assert result.value == {()}
        assert result.menu() == "Query succeeded."

    def test_misspelling_diagnosed(self, university_db):
        """§5.2: 'no such database entities'."""
        result = university_db.probe(university.MISSPELLED)
        assert not result.succeeded
        assert result.exhausted
        assert result.unknown_entities == ("LUVS",)
        assert "No such database entities: LUVS" in result.menu()

    def test_misspelling_suggests_close_names(self, university_db):
        result = university_db.probe(university.MISSPELLED)
        assert "LOVES" in result.spelling_suggestions["LUVS"]
        assert "(did you mean LOVES?)" in result.menu()

    def test_no_suggestions_for_truly_alien_names(self, university_db):
        result = university_db.probe("(STUDENT, XQZWV-99, z)")
        assert result.exhausted
        assert "XQZWV-99" not in result.spelling_suggestions
        assert "did you mean" not in result.menu()

    def test_opera_probe_succeeds_directly(self, university_db):
        result = university_db.probe("(z, LOVES, OPERA)")
        assert result.succeeded
        assert ("ANNA",) in result.value


class TestWaves:
    def test_deep_retraction_climbs_one_level_per_wave(self):
        facts, query = deep_retraction_workload(4)
        db = Database()
        db.add_facts(facts)
        result = db.probe(query)
        assert not result.succeeded
        assert len(result.waves) == 4
        assert result.waves[-1].successes

    def test_max_waves_abandons(self):
        facts, query = deep_retraction_workload(6)
        db = Database()
        db.add_facts(facts)
        result = db.probe(query, max_waves=2)
        assert not result.succeeded
        assert len(result.waves) == 2
        assert not result.exhausted

    def test_critical_point(self):
        """A failed query whose every retraction succeeds (§5.2)."""
        db = Database()
        db.add("A1", ISA, "A")
        db.add("B", ISA, "B2")
        db.add("A1", "R", "B")     # source retraction succeeds
        db.add("A", "R", "B2")     # target retraction succeeds
        db.add("A", "S", "B")      # Δ-relationship retraction succeeds
        result = db.probe("(A, R, B)")
        assert not result.succeeded
        assert result.critical
        assert result.waves[0].all_succeeded

    def test_waves_deduplicate_queries(self):
        """Two generalization orders reach the same query; it must be
        attempted once."""
        db = Database()
        db.add("A", ISA, "A2")
        db.add("B", ISA, "B2")
        db.add("X", "R", "Y")  # unrelated success target keeps db busy
        result = db.probe("(q, R2, A) and (q, R2, B)", max_waves=6)
        all_attempted = [
            str(c.query) for wave in result.waves for c in wave.attempted]
        assert len(all_attempted) == len(set(all_attempted))


class TestBroadnessSoundness:
    """If Q succeeds, every minimally broader query succeeds (§5.1)."""

    def test_answers_monotone_under_retraction(self, university_db):
        queries = [
            "(z, LOVES, OPERA)",
            "(STUDENT, LOVE, z)",
            "(z, in, QUARTERBACK)",
            "(FRESHMAN, LOVE, z) and (z, COSTS, FREE)",
        ]
        evaluator = university_db.evaluator()
        hierarchy = university_db.hierarchy()
        for text in queries:
            cq = ConjunctiveQuery.from_query(text)
            original_value = evaluator.evaluate(cq.to_query())
            for candidate in retraction_set(
                    RetractedQuery(query=cq, path=()), hierarchy):
                broader_value = evaluator.evaluate(
                    candidate.query.to_query())
                assert original_value <= broader_value, (
                    f"{candidate.query} lost answers of {text}")
