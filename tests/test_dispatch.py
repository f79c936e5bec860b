"""The closure fast path: relationship signatures and compiled dispatch.

Covers the two layers of :mod:`repro.rules.dispatch` (compiled joins
and the relationship-indexed dispatch index) against the semi-naive
reference, the :class:`~repro.db.Database` running that engine (and
its answers following every write and rule toggle), the fast
:meth:`~repro.core.store.FactStore.copy`, and the duplicate-condition
pruning regression in every engine.
"""

import pytest

from repro.core.entities import ISA, MEMBER, SYN
from repro.core.facts import Fact, Template, Variable
from repro.core.store import FactStore
from repro.db import Database
from repro.obs import Telemetry, use_telemetry
from repro.rules.builtin import STANDARD_RULES
from repro.rules.dispatch import (
    CompiledRuleSet,
    compile_ruleset,
    dispatched_closure,
)
from repro.rules.engine import (
    extend_closure,
    naive_closure,
    semi_naive_closure,
)
from repro.rules.rule import (
    ANY_RELATIONSHIP,
    NONSPECIAL_RELATIONSHIP,
    Condition,
    Distinct,
    NotSpecial,
    RelationshipClassifier,
    Rule,
    RuleContext,
    atom_relationship_spec,
    specs_overlap,
)

X, Y, Z, R = Variable("x"), Variable("y"), Variable("z"), Variable("r")


def _context(facts):
    return RuleContext(classifier=RelationshipClassifier(FactStore(facts)))


# ----------------------------------------------------------------------
# Relationship signatures
# ----------------------------------------------------------------------
class TestRelationshipSpecs:
    def test_ground_atom_is_its_own_spec(self):
        assert atom_relationship_spec(Template(X, ISA, Y), ()) == ISA

    def test_unguarded_variable_is_any(self):
        spec = atom_relationship_spec(Template(X, R, Y), ())
        assert spec is ANY_RELATIONSHIP

    def test_notspecial_guard_narrows_to_nonspecial(self):
        spec = atom_relationship_spec(Template(X, R, Y), (NotSpecial(R),))
        assert spec is NONSPECIAL_RELATIONSHIP

    def test_overlap_rules(self):
        assert specs_overlap(ISA, ISA)
        assert not specs_overlap(ISA, MEMBER)
        assert specs_overlap(ANY_RELATIONSHIP, ISA)
        assert specs_overlap(NONSPECIAL_RELATIONSHIP, "WORKS-FOR")
        # A NotSpecial-guarded position can never produce/match ``≺``.
        assert not specs_overlap(NONSPECIAL_RELATIONSHIP, ISA)
        assert specs_overlap(NONSPECIAL_RELATIONSHIP,
                             NONSPECIAL_RELATIONSHIP)


# ----------------------------------------------------------------------
# Compiled rules and the dispatch index
# ----------------------------------------------------------------------
class TestDispatch:
    def test_closure_matches_on_ablated_rules(self):
        # Without both synonym rules nothing consumes every
        # relationship; the closure still runs the reference's rounds.
        ablated = [r for r in STANDARD_RULES
                   if not r.name.startswith("syn-")]
        facts = [Fact("A", ISA, "B"), Fact("B", ISA, "C"),
                 Fact("I", MEMBER, "A"), Fact("C", "OWNS", "THING"),
                 Fact("P", "LIKES", "Q")]
        context = _context(facts)
        reference = semi_naive_closure(facts, ablated, context)
        fast = dispatched_closure(facts, ablated, context)
        assert set(fast.store) == set(reference.store)
        assert fast.iterations == reference.iterations
        assert fast.rule_firings == reference.rule_firings

    def test_standard_rules_identical_closure_and_attribution(self):
        facts = [Fact("A", ISA, "B"), Fact("B", ISA, "C"),
                 Fact("M", SYN, "A"), Fact("I", MEMBER, "A"),
                 Fact("B", "OWNS", "THING")]
        context = _context(facts)
        reference = semi_naive_closure(facts, STANDARD_RULES, context,
                                       trace=True)
        fast = dispatched_closure(facts, STANDARD_RULES, context,
                                  trace=True)
        assert set(fast.store) == set(reference.store)
        assert fast.iterations == reference.iterations
        assert fast.rule_firings == reference.rule_firings
        assert set(fast.provenance) == set(reference.provenance)

    def test_dispatch_index_buckets_by_pivot_relationship(self):
        compiled = compile_ruleset(STANDARD_RULES)
        assert ISA in compiled.by_relationship
        # The synonym-substitution pivots land in the wildcard bucket.
        wildcard_rules = {cr.rule.name for cr in compiled.wildcard}
        assert "syn-source" in wildcard_rules
        # The ordinary-relationship inheritance pivots are guarded by
        # NotSpecial, so they sit in the nonspecial bucket.
        nonspecial_rules = {cr.rule.name for cr in compiled.nonspecial}
        assert "gen-source" in nonspecial_rules

    def test_select_skips_unreachable_rules(self):
        compiled = compile_ruleset(STANDARD_RULES)
        active = compiled.select({ISA})
        assert len(active) < len(compiled.compiled)
        names = {cr.rule.name for cr in active}
        assert "gen-transitive" in names
        # No delta relationship can feed the ∈-pivoted bodies.
        assert all(cr.pivot_spec != MEMBER for cr in active)
        # A non-special relationship additionally wakes the nonspecial
        # bucket.
        wider = compiled.select({ISA, "OWNS"})
        assert len(wider) > len(active)

    def test_skipped_rules_counter_and_equivalence(self):
        facts = [Fact(f"N{i}", ISA, f"N{i+1}") for i in range(6)]
        context = _context(facts)
        with use_telemetry(Telemetry()) as telemetry:
            fast = dispatched_closure(facts, STANDARD_RULES, context)
        assert telemetry.counters.get("dispatch.skipped_rules", 0) > 0
        reference = semi_naive_closure(facts, STANDARD_RULES, context)
        assert set(fast.store) == set(reference.store)
        assert fast.rule_firings == reference.rule_firings

    def test_tracing_does_not_change_results(self):
        facts = [Fact("A", ISA, "B"), Fact("I", MEMBER, "A"),
                 Fact("B", "OWNS", "T")]
        context = _context(facts)
        untraced = dispatched_closure(facts, STANDARD_RULES, context)
        with use_telemetry(Telemetry()):
            traced = dispatched_closure(facts, STANDARD_RULES, context)
        assert set(traced.store) == set(untraced.store)
        assert traced.rule_firings == untraced.rule_firings
        assert traced.iterations == untraced.iterations

    def test_max_iterations_caps_total_rounds(self):
        facts = [Fact(f"N{i}", ISA, f"N{i+1}") for i in range(8)]
        context = _context(facts)
        capped = dispatched_closure(facts, STANDARD_RULES, context,
                                    max_iterations=2)
        assert capped.iterations == 2
        full = dispatched_closure(facts, STANDARD_RULES, context)
        assert len(capped.store) < len(full.store)

    def test_compiled_ruleset_reuse_and_registry_cache(self):
        from repro.rules.registry import RuleRegistry

        registry = RuleRegistry()
        first = registry.compiled()
        assert registry.compiled() is first
        registry.exclude("gen-transitive")
        second = registry.compiled()
        assert second is not first
        assert all(r.name != "gen-transitive" for r in second.rules)
        registry.include("gen-transitive")
        assert registry.compiled() is not second

    def test_extend_closure_with_compiled_rules(self):
        facts = [Fact("A", ISA, "B"), Fact("I", MEMBER, "A")]
        context = _context(facts)
        compiled = compile_ruleset(STANDARD_RULES)
        result = dispatched_closure(facts, STANDARD_RULES, context,
                                    compiled=compiled)
        extend_closure(result, (Fact("B", ISA, "C"),), STANDARD_RULES,
                       context, compiled=compiled)
        recomputed = dispatched_closure(
            facts + [Fact("B", ISA, "C")], STANDARD_RULES, context,
            compiled=compiled)
        assert set(result.store) == set(recomputed.store)

    def test_semijoin_prunes_a_closure_but_not_a_one_fact_extension(self):
        # The macro benchmark's shape: employees in a class, working
        # for departments, knowing skills under fields under areas.
        facts = [Fact("EMPLOYEE", ISA, "PERSON")]
        facts += [Fact(f"SKILL{s}", ISA, f"FIELD{s % 4}") for s in range(12)]
        facts += [Fact(f"FIELD{f}", ISA, f"AREA{f % 2}") for f in range(4)]
        for e in range(40):
            facts += [Fact(f"EMP{e}", MEMBER, "EMPLOYEE"),
                      Fact(f"EMP{e}", "WORKS-FOR", f"DEPT{e % 4}"),
                      Fact(f"EMP{e}", "KNOWS", f"SKILL{e % 12}")]
        facts += [Fact(f"DEPT{d}", MEMBER, "DEPARTMENT") for d in range(4)]
        context = _context(facts)
        compiled = compile_ruleset(STANDARD_RULES)
        with use_telemetry(Telemetry()) as telemetry:
            result = dispatched_closure(facts, STANDARD_RULES, context,
                                        compiled=compiled)
        assert telemetry.counters.get("dispatch.pruned", 0) > 0
        # A newcomer's first fact: one fact in, one derived per round
        # ((NEW, WORKS-FOR, DEPARTMENT)), so no pivot ever has two
        # candidates and the size test never runs.
        added = Fact("NEW", "WORKS-FOR", "DEPT1")
        rounds = result.iterations
        with use_telemetry(Telemetry()) as telemetry:
            extend_closure(result, (added,), STANDARD_RULES, context,
                           compiled=compiled)
        assert telemetry.counters.get("dispatch.pruned", 0) == 0
        assert result.iterations == rounds + 2
        reference = semi_naive_closure(facts + [added], STANDARD_RULES,
                                       context)
        assert set(result.store) == set(reference.store)

    def test_dead_rule_compiles_to_nothing_but_keeps_firing_entry(self):
        dead = Rule(name="never", body=(Template(X, "R", Y),),
                    head=(Template(X, "DERIVED", Y),),
                    conditions=(Distinct("A", "A"),))
        compiled = compile_ruleset([dead])
        assert len(compiled.compiled) == 0
        facts = [Fact("A", "R", "B")]
        result = dispatched_closure(facts, [dead], _context(facts))
        assert result.rule_firings == {"never": 0}
        assert len(result.store) == 1


# ----------------------------------------------------------------------
# Database integration
# ----------------------------------------------------------------------
class TestDatabaseEngine:
    def test_engines_agree_through_the_database(self):
        """The database runs the compiled engine; the two interpreted
        references, called directly, reach the same closure."""
        facts = [Fact("JOHN", MEMBER, "EMPLOYEE"),
                 Fact("EMPLOYEE", ISA, "PERSON"),
                 Fact("EMPLOYEE", "EARNS", "SALARY")]
        db = Database(facts)
        closure = frozenset(db.closure().store)
        for reference in (semi_naive_closure, naive_closure):
            result = reference(db.facts, list(db.rules), db.rule_context())
            assert closure == frozenset(result.store)

    def test_incremental_add_matches_recompute(self):
        db = Database()
        db.add("EMPLOYEE", ISA, "PERSON")
        db.add("JOHN", MEMBER, "EMPLOYEE")
        db.closure()
        db.add("PERSON", ISA, "AGENT")  # extends the cached closure
        fresh = Database(list(db.facts))
        assert frozenset(db.closure().store) == \
            frozenset(fresh.closure().store)


# ----------------------------------------------------------------------
# Answers follow the data (the class is named for the versioned result
# cache these once guarded against; nothing remembers an answer now)
# ----------------------------------------------------------------------
class TestResultCache:
    def test_mutation_invalidates_by_version(self):
        db = Database()
        db.add("A", ISA, "B")
        assert ("C",) not in db.query("(A, ≺, y)")
        db.add("B", ISA, "C")
        assert ("C",) in db.query("(A, ≺, y)")
        db.remove_fact(Fact("B", ISA, "C"))
        assert ("C",) not in db.query("(A, ≺, y)")

    def test_navigation_session_sees_configuration_changes(self):
        db = Database()
        db.add("JOHN", "DRIVES", "PC#9")
        session = db.session()
        assert "DRIVES" in session.visit("JOHN").groups
        db.add("JOHN", "OWNS", "HOUSE")
        # A fresh session reads the view as it is now.
        assert "OWNS" in db.session().visit("JOHN").groups

    def test_rule_toggle_bumps_epoch(self):
        db = Database()
        db.add("A", ISA, "B")
        db.add("B", ISA, "C")
        assert ("C",) in db.query("(A, ≺, y)")
        db.exclude("gen-transitive")
        assert ("C",) not in db.query("(A, ≺, y)")
        db.include("gen-transitive")
        assert ("C",) in db.query("(A, ≺, y)")


# ----------------------------------------------------------------------
# FactStore.copy fast path
# ----------------------------------------------------------------------
class TestStoreCopy:
    def test_copy_equals_rebuilt_from_scratch(self):
        store = FactStore()
        for i in range(20):
            store.add(Fact(f"E{i % 7}", f"R{i % 3}", f"E{(i + 2) % 7}"))
        store.discard(Fact("E0", "R0", "E2"))
        store.discard(Fact("E1", "R1", "E3"))
        copied = store.copy()
        rebuilt = FactStore(store)
        assert set(copied) == set(rebuilt)
        for index in ("_by_s", "_by_r", "_by_t", "_by_sr", "_by_st",
                      "_by_rt"):
            assert dict(getattr(copied, index)) == \
                dict(getattr(rebuilt, index)), index
        assert dict(copied._entity_refs) == dict(rebuilt._entity_refs)
        assert dict(copied._relationship_refs) == \
            dict(rebuilt._relationship_refs)
        assert copied.entities() == rebuilt.entities()
        assert copied.relationships() == rebuilt.relationships()

    def test_copy_is_independent(self):
        store = FactStore([Fact("A", "R", "B")])
        copied = store.copy()
        copied.add(Fact("C", "S", "D"))
        copied.discard(Fact("A", "R", "B"))
        assert Fact("A", "R", "B") in store
        assert Fact("C", "S", "D") not in store
        assert store.relationships() == {"R"}

    def test_copy_preserves_version(self):
        store = FactStore([Fact("A", "R", "B")])
        version = store.version
        assert store.copy().version == version

    def test_version_moves_on_every_mutation(self):
        store = FactStore()
        v0 = store.version
        store.add(Fact("A", "R", "B"))
        v1 = store.version
        assert v1 > v0
        store.add(Fact("A", "R", "B"))  # duplicate: no change
        assert store.version == v1
        store.discard(Fact("A", "R", "B"))
        v2 = store.version
        assert v2 > v1
        store.clear()
        assert store.version > v2


# ----------------------------------------------------------------------
# Duplicate-condition pruning regression
# ----------------------------------------------------------------------
class _ClassEqualCondition(Condition):
    """A condition whose instances compare equal by *class* while
    meaning different things — the worst case for pruning checked
    conditions by equality instead of by position."""

    def __init__(self, variable, forbidden):
        self.variable = variable
        self.forbidden = forbidden

    def holds(self, binding, context):
        return binding.get(self.variable) != self.forbidden

    def variables(self):
        return frozenset({self.variable})

    def __eq__(self, other):
        return isinstance(other, _ClassEqualCondition)

    def __hash__(self):
        return hash(_ClassEqualCondition)


class TestDuplicateConditionPruning:
    def _rule(self):
        # x's guard becomes checkable after the first atom; z's only
        # after the second.  Equality-based pruning dropped z's guard
        # the moment x's was checked, deriving (x, T, BAD-Z).
        return Rule(
            name="guarded",
            body=(Template(X, "R", Y), Template(Y, "S", Z)),
            head=(Template(X, "T", Z),),
            conditions=(_ClassEqualCondition(X, "BAD-X"),
                        _ClassEqualCondition(Z, "BAD-Z")))

    @pytest.fixture
    def facts(self):
        return [Fact("A", "R", "B"), Fact("BAD-X", "R", "B"),
                Fact("B", "S", "OK-Z"), Fact("B", "S", "BAD-Z")]

    def test_all_engines_enforce_every_copy(self, facts):
        rule = self._rule()
        context = _context(facts)
        expected = {Fact("A", "T", "OK-Z")}
        for engine in (naive_closure, semi_naive_closure,
                       dispatched_closure):
            result = engine(facts, [rule], context)
            derived = set(result.store) - set(facts)
            assert derived == expected, engine.__name__

    def test_literally_repeated_condition_is_harmless(self, facts):
        guard = _ClassEqualCondition(Z, "BAD-Z")
        rule = Rule(name="doubled",
                    body=(Template(X, "R", Y), Template(Y, "S", Z)),
                    head=(Template(X, "T", Z),),
                    conditions=(guard, guard))
        context = _context(facts)
        result = semi_naive_closure(facts, [rule], context)
        derived = set(result.store) - set(facts)
        assert derived == {Fact("A", "T", "OK-Z"),
                           Fact("BAD-X", "T", "OK-Z")}
