"""Unit tests for the indexed FactStore, including property-based
checks that every access pattern agrees with a full scan."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.facts import Fact, Template, Variable, var
from repro.core.store import FactStore, seed_store

X, Y, Z = var("x"), var("y"), var("z")


def make_store():
    return FactStore([
        Fact("JOHN", "LIKES", "FELIX"),
        Fact("JOHN", "LIKES", "MARY"),
        Fact("JOHN", "WORKS-FOR", "SHIPPING"),
        Fact("MARY", "LIKES", "FELIX"),
        Fact("B1", "CITES", "B1"),
        Fact("B1", "CITES", "B2"),
    ])


class TestMutation:
    def test_add_and_contains(self):
        store = FactStore()
        assert store.add(Fact("A", "R", "B"))
        assert Fact("A", "R", "B") in store
        assert len(store) == 1

    def test_add_duplicate_returns_false(self):
        store = FactStore()
        assert store.add(Fact("A", "R", "B"))
        assert not store.add(Fact("A", "R", "B"))
        assert len(store) == 1

    def test_add_all_counts_new(self):
        store = FactStore()
        added = store.add_all(
            [Fact("A", "R", "B"), Fact("A", "R", "B"), Fact("C", "R", "D")])
        assert added == 2

    def test_discard(self):
        store = make_store()
        assert store.discard(Fact("JOHN", "LIKES", "FELIX"))
        assert Fact("JOHN", "LIKES", "FELIX") not in store
        assert not store.discard(Fact("JOHN", "LIKES", "FELIX"))

    def test_discard_cleans_indexes(self):
        store = FactStore([Fact("A", "R", "B")])
        store.discard(Fact("A", "R", "B"))
        assert list(store.match(Template("A", Y, Z))) == []
        assert not store.has_entity("A")
        assert "R" not in store.relationships()

    def test_discard_keeps_shared_entities(self):
        store = FactStore([Fact("A", "R", "B"), Fact("A", "S", "C")])
        store.discard(Fact("A", "R", "B"))
        assert store.has_entity("A")
        assert not store.has_entity("B")

    def test_clear(self):
        store = make_store()
        store.clear()
        assert len(store) == 0
        assert not store.entities()

    def test_copy_is_independent(self):
        store = make_store()
        copied = seed_store(store)
        copied.add(Fact("NEW", "R", "B"))
        assert Fact("NEW", "R", "B") not in store


class TestIntrospection:
    def test_entities_cover_all_positions(self):
        store = FactStore([Fact("A", "R", "B")])
        assert store.entities() == {"A", "R", "B"}

    def test_relationships(self):
        assert make_store().relationships() == {
            "LIKES", "WORKS-FOR", "CITES"}

    def test_has_entity_in_any_position(self):
        store = FactStore([Fact("A", "R", "B")])
        assert store.has_entity("R")
        assert not store.has_entity("Z")


class TestMatching:
    def test_fully_ground(self):
        store = make_store()
        assert list(store.match(Template("JOHN", "LIKES", "FELIX"))) == [
            Fact("JOHN", "LIKES", "FELIX")]
        assert list(store.match(Template("JOHN", "LIKES", "NOBODY"))) == []

    def test_by_source(self):
        facts = set(make_store().match(Template("JOHN", Y, Z)))
        assert facts == {
            Fact("JOHN", "LIKES", "FELIX"),
            Fact("JOHN", "LIKES", "MARY"),
            Fact("JOHN", "WORKS-FOR", "SHIPPING"),
        }

    def test_by_source_relationship(self):
        facts = set(make_store().match(Template("JOHN", "LIKES", Z)))
        assert facts == {
            Fact("JOHN", "LIKES", "FELIX"), Fact("JOHN", "LIKES", "MARY")}

    def test_by_relationship_target(self):
        facts = set(make_store().match(Template(X, "LIKES", "FELIX")))
        assert facts == {
            Fact("JOHN", "LIKES", "FELIX"), Fact("MARY", "LIKES", "FELIX")}

    def test_by_source_target(self):
        facts = set(make_store().match(Template("JOHN", Y, "FELIX")))
        assert facts == {Fact("JOHN", "LIKES", "FELIX")}

    def test_open_template_matches_everything(self):
        store = make_store()
        assert set(store.match(Template(X, Y, Z))) == set(store)

    def test_repeated_variable_filters(self):
        facts = set(make_store().match(Template(X, "CITES", X)))
        assert facts == {Fact("B1", "CITES", "B1")}

    def test_match_under_binding(self):
        store = make_store()
        facts = set(store.match(Template(X, "LIKES", Z), {X: "MARY"}))
        assert facts == {Fact("MARY", "LIKES", "FELIX")}

    def test_solutions_extend_binding(self):
        store = make_store()
        solutions = list(store.solutions(Template("JOHN", "LIKES", Z)))
        assert {s[Z] for s in solutions} == {"FELIX", "MARY"}

    def test_solutions_repeated_variable(self):
        store = make_store()
        solutions = list(store.solutions(Template(X, "CITES", X)))
        assert solutions == [{X: "B1"}]

    def test_count_estimate_matches_reality_without_repeats(self):
        store = make_store()
        for pattern in (Template("JOHN", Y, Z), Template(X, "LIKES", Z),
                        Template(X, Y, "FELIX"), Template(X, Y, Z)):
            assert store.count_estimate(pattern) == len(
                list(store.match(pattern)))

    def test_facts_mentioning(self):
        store = make_store()
        mentioning = store.facts_mentioning("FELIX")
        assert mentioning == {
            Fact("JOHN", "LIKES", "FELIX"), Fact("MARY", "LIKES", "FELIX")}

    def test_facts_mentioning_relationship_position(self):
        store = FactStore([Fact("A", "LIKES", "B")])
        assert store.facts_mentioning("LIKES") == {Fact("A", "LIKES", "B")}


# ----------------------------------------------------------------------
# Property-based: indexes agree with a full scan on every pattern shape.
# ----------------------------------------------------------------------
_entities = st.sampled_from(["A", "B", "C", "D", "R", "S"])
_facts = st.builds(Fact, _entities, _entities, _entities)
_fact_lists = st.lists(_facts, max_size=40)


def _pattern_from_shape(shape, probe: Fact) -> Template:
    components = []
    names = iter(("x", "y", "z"))
    for keep, component in zip(shape, probe):
        next_name = next(names)
        components.append(component if keep else Variable(next_name))
    return Template(*components)


@settings(max_examples=60)
@given(facts=_fact_lists, probe=_facts,
       shape=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_match_agrees_with_scan(facts, probe, shape):
    store = FactStore(facts)
    pattern = _pattern_from_shape(shape, probe)
    indexed = set(store.match(pattern))
    scanned = {f for f in facts if pattern.match(f) is not None}
    assert indexed == scanned


@settings(max_examples=60)
@given(facts=_fact_lists)
def test_add_then_discard_roundtrip(facts):
    store = FactStore()
    for f in facts:
        store.add(f)
    assert len(store) == len(set(facts))
    for f in set(facts):
        assert store.discard(f)
    assert len(store) == 0
    assert not store.entities()
    assert not store.relationships()


@settings(max_examples=40)
@given(facts=_fact_lists, probe=_facts)
def test_repeated_variable_pattern_agrees_with_scan(facts, probe):
    store = FactStore(facts)
    x = Variable("x")
    pattern = Template(x, probe.relationship, x)
    indexed = set(store.match(pattern))
    scanned = {f for f in facts if pattern.match(f) is not None}
    assert indexed == scanned
