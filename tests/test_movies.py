"""Integration tests on the film world — every mechanism at once."""

from __future__ import annotations

import pytest

from repro.browse.paths import association_paths, semantic_distance
from repro.core.facts import Fact
from repro.datasets import movies
from repro.db import Database


@pytest.fixture(scope="module")
def film_db():
    return movies.load()


class TestWorldSanity:
    def test_consistent(self, film_db):
        assert film_db.check_integrity() == []

    def test_size(self, film_db):
        assert len(film_db.facts) > 120
        assert film_db.closure().derived_count > 100


class TestInference:
    def test_inversion_derives_director_credits(self, film_db):
        assert film_db.query("(TARKOVSKY, DIRECTED, y)") == {
            ("SOLARIS-1972",), ("STALKER-1979",)}

    def test_synonym_vocabulary_bridge(self, film_db):
        """HELMED-BY (the other catalogue's word) answers like
        DIRECTED-BY."""
        assert film_db.query("(x, HELMED-BY, KUBRICK)") == film_db.query(
            "(x, DIRECTED-BY, KUBRICK)")

    def test_genre_alias(self, film_db):
        assert film_db.query("(x, in, SF)") == film_db.query(
            "(x, in, SCIENCE-FICTION)")

    def test_membership_climbs_multiple_inheritance(self, film_db):
        memberships = {
            c for (c,) in film_db.query("(DR-STRANGELOVE, in, c)")}
        # SATIRE ≺ COMEDY and SATIRE ≺ DRAMA — both inherited.
        assert {"SATIRE", "COMEDY", "DRAMA", "FEATURE-FILM",
                "FILM", "ARTWORK"} <= memberships

    def test_class_relationships_do_not_leak(self, film_db):
        """Director credits must not propagate to genres or other
        instances."""
        assert not film_db.ask(
            "(PSYCHOLOGICAL-SF, DIRECTED-BY, TARKOVSKY)")
        assert not film_db.ask("(STALKER-1979, DIRECTED-BY, SODERBERGH)")

    def test_class_level_fact_inherited_by_instances(self, film_db):
        """FILMMAKER CREATES ARTWORK reaches every director."""
        assert film_db.ask("(KUROSAWA, CREATES, ARTWORK)")

    def test_remake_inverted(self, film_db):
        assert film_db.ask("(SOLARIS-1972, REMADE-AS, SOLARIS-2002)")


class TestQueries:
    def test_numeric_rating_filter(self, film_db):
        value = film_db.query(
            "exists r: (x, in, SCIENCE-FICTION) and (x, RATING, r)"
            " and (r, >, 91)")
        assert value == {("2001-ASO",), ("STALKER-1979",)}

    def test_join_across_roles(self, film_db):
        """Directors who adapted a novel."""
        value = film_db.query(
            "exists f, n: (f, DIRECTED-BY, d) and (f, BASED-ON, n)"
            " and (n, in, NOVEL)")
        assert value == {("TARKOVSKY",), ("SODERBERGH",)}

    def test_relation_operator_over_films(self, film_db):
        table = film_db.relation("WESTERN", ("DIRECTED-BY", "DIRECTOR"))
        rows = {row.instance: row.cells for row in table.rows}
        assert rows == {
            "HIGH-NOON": (("ZINNEMANN",),),
            "THE-SEARCHERS": (("FORD",),),
        }

    def test_function_view_runtime(self, film_db):
        runtime = film_db.function("RUNTIME")
        assert runtime("IKIRU") == ("143",)
        assert runtime.is_single_valued()


class TestBrowsing:
    def test_navigation_neighborhood(self, film_db):
        result = film_db.navigate("(SOLARIS-1972, *, *)")
        assert "TARKOVSKY" in result.groups["DIRECTED-BY"]
        assert "SOLARIS-2002" in result.groups["REMADE-AS"]

    def test_paths_author_to_character(self, film_db):
        paths = association_paths(film_db.view(), "LEM", "KELVIN",
                                  max_length=3)
        assert paths
        assert paths[0].render() == (
            "LEM --WROTE--> SOLARIS-1972 --STARS--> BANIONIS"
            " --PLAYED--> KELVIN")

    def test_semantic_distances(self, film_db):
        view = film_db.view()
        assert semantic_distance(view, "TARKOVSKY", "SOLARIS-1972") == 1
        assert semantic_distance(view, "LEM", "KELVIN") == 3

    def test_probe_retracts_genre_and_director(self, film_db):
        result = film_db.probe(
            "(z, in, WESTERN) and (z, DIRECTED-BY, KUBRICK)")
        assert not result.succeeded
        described = {s.describe() for s in result.successes}
        assert "FEATURE-FILM instead of WESTERN" in described

    def test_probe_select_returns_kubrick_features(self, film_db):
        result = film_db.probe(
            "(z, in, WESTERN) and (z, DIRECTED-BY, KUBRICK)")
        for success in result.successes:
            if success.describe() == "FEATURE-FILM instead of WESTERN":
                assert success.value == {
                    ("2001-ASO",), ("DR-STRANGELOVE",)}
                break
        else:
            pytest.fail("expected the FEATURE-FILM retraction")


class TestProvenanceOnFilms:
    def test_why_synonym_bridge(self):
        db = movies.load(Database(trace=True))
        tree = db.why("(2001-ASO, HELMED-BY, KUBRICK)")
        support = tree.stored_support()
        assert Fact("HELMED-BY", "≈", "DIRECTED-BY") in support
        assert Fact("2001-ASO", "DIRECTED-BY", "KUBRICK") in support
