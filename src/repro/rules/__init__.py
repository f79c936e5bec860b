"""Rules: inference, integrity and closure engines.

The §2.5–§3 inference machinery: conjunctive rules ``<L, R>``, the
standard rule set (generalization, membership, synonymy, inversion),
the compiled *dispatched* closure engine, incremental maintenance under
insertion and deletion through the same compiled rule set, integrity
constraints, and provenance.  The references the engine is checked
against — the interpreted closures (naive, semi-naive) of
:mod:`repro.rules.engine` and materialised composition,
:mod:`repro.rules.composition` — are not imported by the package.

Example::

    from repro import Database

    db = Database()
    db.define_rule("sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
    db.add("ANN", "MARRIED-TO", "BOB")
    assert db.ask("(BOB, MARRIED-TO, ANN)")          # derived
"""

from .builtin import STANDARD_RULES, STANDARD_RULES_BY_NAME
from .dispatch import (
    ClosureResult,
    CompiledRuleSet,
    Justification,
    compile_ruleset,
    dispatched_closure,
    extend_closure,
)
from .provenance import (
    DerivationTree,
    ProvenanceError,
    explain_fact,
)
from .integrity import (
    Violation,
    contradictory_pairs,
    find_contradictions,
    is_consistent,
)
from .registry import RuleRegistry
from .rule import (
    Condition,
    Distinct,
    IndividualRelationship,
    NotSpecial,
    RelationshipClassifier,
    Rule,
    RuleContext,
)

__all__ = [
    "STANDARD_RULES", "STANDARD_RULES_BY_NAME", "ClosureResult", "Justification", "extend_closure",
    "CompiledRuleSet",
    "compile_ruleset", "dispatched_closure",
    "DerivationTree", "ProvenanceError", "explain_fact",
    "Violation", "contradictory_pairs", "find_contradictions",
    "is_consistent", "RuleRegistry", "Condition", "Distinct",
    "IndividualRelationship", "NotSpecial", "RelationshipClassifier",
    "Rule", "RuleContext",
]
