"""Rules: inference, integrity, composition, and closure engines.

The §2.5–§3 inference machinery: conjunctive rules ``<L, R>``, the
standard rule set (generalization, membership, synonymy, inversion),
the compiled *dispatched* closure engine, incremental maintenance under
insertion and deletion through the same compiled rule set, composition
bounded by ``limit(n)``, integrity constraints, and provenance.  The
two interpreted references the engine is checked against (naive,
semi-naive) are :mod:`repro.rules.engine`; the package does not import
it.

Example::

    from repro import Database

    db = Database()
    db.define_rule("sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
    db.add("ANN", "MARRIED-TO", "BOB")
    assert db.ask("(BOB, MARRIED-TO, ANN)")          # derived
"""

from .builtin import STANDARD_RULES, STANDARD_RULES_BY_NAME
from .composition import (
    COMPOSITION_OFF,
    UNLIMITED,
    CompositionResult,
    composable,
    compose_closure,
    compose_pair,
)
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
    "STANDARD_RULES", "STANDARD_RULES_BY_NAME", "COMPOSITION_OFF",
    "UNLIMITED", "CompositionResult", "composable", "compose_closure",
    "compose_pair", "ClosureResult", "Justification", "extend_closure",
    "CompiledRuleSet",
    "compile_ruleset", "dispatched_closure",
    "DerivationTree", "ProvenanceError", "explain_fact",
    "Violation", "contradictory_pairs", "find_contradictions",
    "is_consistent", "RuleRegistry", "Condition", "Distinct",
    "IndividualRelationship", "NotSpecial", "RelationshipClassifier",
    "Rule", "RuleContext",
]
