"""Hash-store oracles: a database rebuilt on :class:`FactStore`.

Every :class:`~repro.db.Database` keeps its heap and closure on
interned generations, so a suite that checks a store layout needs its
reference from elsewhere.  :func:`hash_twin` rebuilds a database's
stored facts on a hash :class:`~repro.core.store.FactStore`, closes them
with the reference engine (:func:`~repro.rules.engine.semi_naive_closure`,
provenance included when asked) under the database's rules and
relationship declarations, composes up to its ``limit(n)``, and puts the
database's virtual relations over the result.  Nothing in a twin reads a
generation, so the reference :class:`~repro.query.evaluate.Evaluator`
over its view answers by the hash indexes and the planner's sampled
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.facts import Fact
from repro.core.store import FactStore
from repro.db import Database
from repro.rules.composition import compose_closure
from repro.rules.dispatch import ClosureResult
from repro.rules.engine import semi_naive_closure
from repro.rules.provenance import DerivationTree, explain_fact
from repro.rules.rule import RelationshipClassifier, RuleContext
from repro.virtual.computed import FactView


@dataclass
class HashTwin:
    """One database's state on hash stores."""

    #: The stored facts.
    facts: FactStore
    #: The standard closure, by the reference engine.
    standard: ClosureResult
    #: The standard closure plus composition up to the database's limit.
    closure: FactStore
    #: The closure under the database's virtual relations.
    view: FactView

    def why(self, fact: Fact) -> DerivationTree:
        """:meth:`Database.why <repro.db.Database.why>` for a stored or
        derived fact, from the reference engine's provenance."""
        if fact in self.facts:
            return DerivationTree(fact=fact, rule=None)
        return explain_fact(fact, self.facts, self.standard.provenance)


def hash_twin(db: Database, trace: bool = False) -> HashTwin:
    """``db``'s stored facts, closure and view rebuilt on hash stores."""
    facts = FactStore(db.facts)
    context = RuleContext(classifier=RelationshipClassifier(facts))
    standard = semi_naive_closure(facts, list(db.rules), context,
                                  trace=trace)
    closure = standard.store
    if db._composition_enabled:  # noqa: SLF001
        closure = FactStore(closure)
        closure.add_all(compose_closure(
            standard.store, db.composition_limit).facts)
    return HashTwin(facts, standard, closure,
                    FactView(closure, db.view().virtual))
