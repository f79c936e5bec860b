"""Tests for the rule surface syntax (rules/parse.py) and
Database.define_rule."""

from __future__ import annotations

import pytest

from repro.core.errors import RuleError
from repro.core.facts import Fact, Template, var
from repro.db import Database
from repro.rules.parse import parse_rule
from repro.rules.rule import Distinct

A, B, X = var("a"), var("b"), var("x")


class TestParseRule:
    def test_single_atom_sides(self):
        rule = parse_rule("(x, in, AGE) => (x, >, 0)", "age")
        assert rule.body == (Template(X, "∈", "AGE"),)
        assert rule.head == (Template(X, ">", "0"),)

    def test_conjunctive_body(self):
        rule = parse_rule(
            "(a, R, b) and (b, S, a) => (a, BOTH, b)", "both")
        assert len(rule.body) == 2

    def test_conjunctive_head(self):
        rule = parse_rule(
            "(a, SIBLING, b) => (a, RELATED, b) and (b, RELATED, a)",
            "sib")
        assert len(rule.head) == 2

    def test_guards(self):
        rule = parse_rule(
            "(s, R, t) and (t, R, u) => (s, R, u) where s != u", "t")
        assert rule.conditions == (Distinct(var("s"), var("u")),)

    def test_multiple_guards(self):
        rule = parse_rule(
            "(s, R, t) => (t, R, s) where s != t, s != JOHN", "g")
        assert len(rule.conditions) == 2
        assert Distinct(var("s"), "JOHN") in rule.conditions

    def test_aliases_apply(self):
        rule = parse_rule("(x, isa, B) => (x, in, C)", "alias")
        assert rule.body[0].relationship == "≺"
        assert rule.head[0].relationship == "∈"

    def test_constraint_flag(self):
        rule = parse_rule("(x, in, AGE) => (x, >, 0)", "age",
                          is_constraint=True)
        assert rule.is_constraint

    def test_description_keeps_text(self):
        rule = parse_rule("(a, R, b) => (b, R, a)", "r")
        assert "(a, R, b) => (b, R, a)" in rule.description

    def test_missing_arrow(self):
        with pytest.raises(RuleError, match="=>"):
            parse_rule("(a, R, b) and (b, R, a)", "bad")

    def test_two_arrows(self):
        with pytest.raises(RuleError):
            parse_rule("(a,R,b) => (b,R,a) => (a,R,a)", "bad")

    def test_disjunctive_side_rejected(self):
        with pytest.raises(RuleError, match="conjunction"):
            parse_rule("(a, R, b) or (a, S, b) => (a, T, b)", "bad")

    def test_unsafe_head_rejected(self):
        with pytest.raises(RuleError, match="unsafe"):
            parse_rule("(a, R, b) => (a, R, c)", "bad")

    def test_bad_guard_rejected(self):
        with pytest.raises(RuleError, match="guard"):
            parse_rule("(a, R, b) => (b, R, a) where a > b", "bad")


class TestDefineRule:
    def test_symmetric_relationship(self):
        db = Database()
        db.define_rule("sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
        db.add("JOHN", "MARRIED-TO", "MARY")
        assert db.ask("(MARY, MARRIED-TO, JOHN)")

    def test_transitivity_with_guard(self):
        db = Database()
        db.define_rule(
            "part-trans",
            "(s, PART-OF, t) and (t, PART-OF, u) => (s, PART-OF, u)"
            " where s != u")
        db.add("WHEEL", "PART-OF", "CAR")
        db.add("CAR", "PART-OF", "FLEET")
        assert db.ask("(WHEEL, PART-OF, FLEET)")

    def test_constraint_detected_by_integrity(self):
        db = Database()
        db.define_rule("age-positive", "(x, in, AGE) => (x, >, 0)",
                       is_constraint=True)
        db.add("30", "∈", "AGE")
        assert db.check_integrity() == []
        db.add("-4", "∈", "AGE")
        assert any(v.fact == Fact("-4", ">", "0")
                   for v in db.check_integrity())

    def test_rule_toggleable(self):
        db = Database()
        db.define_rule("sym", "(a, KNOWS, b) => (b, KNOWS, a)")
        db.add("A", "KNOWS", "B")
        assert db.ask("(B, KNOWS, A)")
        db.exclude("sym")
        assert not db.ask("(B, KNOWS, A)")

    def test_defined_rules_traced(self):
        db = Database(trace=True)
        db.define_rule("sym", "(a, KNOWS, b) => (b, KNOWS, a)")
        db.add("A", "KNOWS", "B")
        tree = db.why("(B, KNOWS, A)")
        assert tree.rule == "sym"

    def test_shell_rule_command(self):
        from repro.shell import BrowserShell

        shell = BrowserShell(Database())
        assert shell.execute(
            "rule rev (a, OWES, b) => (b, OWED-BY, a)"
        ).startswith("defined")
        shell.execute("add TOM OWES SUE")
        assert shell.execute("ask (SUE, OWED-BY, TOM)") == "true"
        assert shell.execute("rule broken").startswith("usage:")
        assert shell.execute("rule x (a, R, b)").startswith("error:")
