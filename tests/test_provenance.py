"""Derivation provenance tests: justification recording, tree
construction, composition splitting, and support sets."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entities import ISA, MEMBER, SYN
from repro.core.facts import Fact
from repro.core.store import FactStore
from repro.db import Database
from repro.rules.builtin import STANDARD_RULES
from repro.rules.engine import Justification, semi_naive_closure
from repro.rules.provenance import (
    DerivationTree,
    ProvenanceError,
    explain_fact,
)
from repro.rules.rule import RelationshipClassifier, RuleContext


def traced_db(*facts) -> Database:
    db = Database(trace=True)
    for fact in facts:
        db.add(*fact)
    return db


class TestJustificationRecording:
    def test_every_derived_fact_justified(self):
        facts = [
            Fact("JOHN", MEMBER, "EMPLOYEE"),
            Fact("EMPLOYEE", ISA, "PERSON"),
            Fact("EMPLOYEE", "EARNS", "SALARY"),
        ]
        store = FactStore(facts)
        context = RuleContext(classifier=RelationshipClassifier(store))
        result = semi_naive_closure(facts, STANDARD_RULES, context,
                                    trace=True)
        derived = set(result.store) - set(facts)
        assert derived
        for fact in derived:
            assert fact in result.provenance

    def test_premises_are_earlier_facts(self):
        facts = [Fact("A", ISA, "B"), Fact("B", ISA, "C"),
                 Fact("C", ISA, "D")]
        store = FactStore(facts)
        context = RuleContext(classifier=RelationshipClassifier(store))
        result = semi_naive_closure(facts, STANDARD_RULES, context,
                                    trace=True)
        for fact, justification in result.provenance.items():
            for premise in justification.premises:
                assert premise in result.store

    def test_trace_off_by_default(self):
        facts = [Fact("A", ISA, "B")]
        store = FactStore(facts)
        context = RuleContext(classifier=RelationshipClassifier(store))
        result = semi_naive_closure(facts, STANDARD_RULES, context)
        assert result.provenance is None


class TestWhy:
    def test_stored_fact(self):
        db = traced_db(("A", "R", "B"))
        tree = db.why("(A, R, B)")
        assert tree.is_stored
        assert tree.depth() == 0

    def test_single_step_derivation(self):
        db = traced_db(("JOHN", MEMBER, "EMPLOYEE"),
                       ("EMPLOYEE", "EARNS", "SALARY"))
        tree = db.why("(JOHN, EARNS, SALARY)")
        assert tree.rule == "mem-source"
        assert tree.depth() == 1
        assert {p.fact for p in tree.premises} == {
            Fact("JOHN", MEMBER, "EMPLOYEE"),
            Fact("EMPLOYEE", "EARNS", "SALARY"),
        }

    def test_multi_step_derivation(self):
        db = traced_db(("JOHN", MEMBER, "EMPLOYEE"),
                       ("EMPLOYEE", "EARNS", "SALARY"),
                       ("SALARY", ISA, "COMPENSATION"))
        tree = db.why("(JOHN, EARNS, COMPENSATION)")
        assert tree.depth() == 2

    def test_stored_support(self):
        db = traced_db(("JOHN", MEMBER, "EMPLOYEE"),
                       ("EMPLOYEE", "EARNS", "SALARY"),
                       ("SALARY", ISA, "COMPENSATION"))
        support = db.why("(JOHN, EARNS, COMPENSATION)").stored_support()
        assert support == {
            Fact("JOHN", MEMBER, "EMPLOYEE"),
            Fact("EMPLOYEE", "EARNS", "SALARY"),
            Fact("SALARY", ISA, "COMPENSATION"),
        }

    def test_composition_provenance(self):
        db = traced_db(("A", "R", "B"), ("B", "S", "C"))
        db.limit(2)
        tree = db.why("(A, R.B.S, C)")
        assert tree.rule == "composition"
        assert {p.fact for p in tree.premises} == {
            Fact("A", "R", "B"), Fact("B", "S", "C")}

    def test_nested_composition_provenance(self):
        db = traced_db(("A", "R", "B"), ("B", "S", "C"), ("C", "T", "D"))
        db.limit(3)
        tree = db.why("(A, R.B.S.C.T, D)")
        assert tree.rule == "composition"
        assert tree.stored_support() == {
            Fact("A", "R", "B"), Fact("B", "S", "C"),
            Fact("C", "T", "D")}

    def test_virtual_fact(self):
        db = traced_db(("A", "R", "B"))
        tree = db.why("(5, <, 8)")
        assert tree.rule == "virtual"

    def test_unknown_fact_raises(self):
        db = traced_db(("A", "R", "B"))
        with pytest.raises(ProvenanceError):
            db.why("(A, R, NOPE)")

    def test_trace_off_raises_helpfully(self):
        db = Database()
        db.add("JOHN", MEMBER, "EMPLOYEE")
        db.add("EMPLOYEE", "EARNS", "SALARY")
        with pytest.raises(ProvenanceError, match="trace=True"):
            db.why("(JOHN, EARNS, SALARY)")

    def test_non_ground_text_rejected(self):
        db = traced_db(("A", "R", "B"))
        with pytest.raises(Exception):
            db.why("(A, R, x)")

    def test_incremental_insertions_are_traced(self):
        db = traced_db(("EMPLOYEE", "EARNS", "SALARY"))
        db.closure()  # materialize, then extend incrementally
        db.add("JOHN", MEMBER, "EMPLOYEE")
        tree = db.why("(JOHN, EARNS, SALARY)")
        assert tree.rule == "mem-source"


#: A traced closure of two ≺ diamonds, explained: A0≺B0≺D0 and
#: A0≺C0≺D0 derive (A0, ≺, D0) twice in one round, and the same for A1.
_DIAMONDS = """
from repro.core.entities import ISA
from repro.core.facts import Fact
from repro.db import Database

facts = []
for i in range(2):
    facts += [Fact(f"A{i}", ISA, f"B{i}"), Fact(f"B{i}", ISA, f"D{i}"),
              Fact(f"A{i}", ISA, f"C{i}"), Fact(f"C{i}", ISA, f"D{i}")]
db = Database(facts, trace=True)
for i in range(2):
    print(db.why(f"(A{i}, \u227a, D{i})").render())
print(sorted(map(repr, db.closure().provenance.items())))
"""


def test_why_does_not_depend_on_the_hash_seed():
    """A fact with two derivations in one round is explained the same
    way by every process: the first rule deriving it, with its least
    premises, whatever order the strings hash in."""
    source = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [source] + ([path] if path else [])))
        done = subprocess.run([sys.executable, "-c", _DIAMONDS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
    assert "(A0, ≺, B0)" in outputs.pop()


class TestRendering:
    def test_render_shape(self):
        db = traced_db(("JOHN", MEMBER, "EMPLOYEE"),
                       ("EMPLOYEE", "EARNS", "SALARY"))
        text = db.why("(JOHN, EARNS, SALARY)").render()
        lines = text.splitlines()
        assert lines[0].endswith("[mem-source]")
        assert lines[1].startswith("├── ")
        assert lines[2].startswith("└── ")
        assert all("[stored]" in line for line in lines[1:])

    def test_render_nested_indentation(self):
        db = traced_db(("JOHN", MEMBER, "EMPLOYEE"),
                       ("EMPLOYEE", "EARNS", "SALARY"),
                       ("SALARY", ISA, "COMPENSATION"))
        text = db.why("(JOHN, EARNS, COMPENSATION)").render()
        assert "│   " in text or "    " in text


# ----------------------------------------------------------------------
# Property: every derived fact of a random heap explains down to
# stored facts, and the premises really derive it.
# ----------------------------------------------------------------------
_entities = st.sampled_from(["A", "B", "C", "D"])
_relationships = st.sampled_from(["R", "S", ISA, MEMBER, SYN])
_heaps = st.lists(
    st.builds(Fact, _entities, _relationships, _entities),
    min_size=1, max_size=10)


@settings(max_examples=30, deadline=None)
@given(facts=_heaps)
def test_all_derivations_ground_out(facts):
    store = FactStore(facts)
    context = RuleContext(classifier=RelationshipClassifier(store))
    result = semi_naive_closure(facts, STANDARD_RULES, context,
                                trace=True)
    for fact in result.store:
        tree = explain_fact(fact, store, result.provenance)
        support = tree.stored_support()
        assert support <= set(facts)
        if not tree.is_stored:
            assert support  # every derivation rests on stored facts
