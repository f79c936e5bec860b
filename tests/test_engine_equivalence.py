"""Randomized engine-equivalence suite.

The three closure engines — naive, semi-naive, and dispatched
(compiled + relationship-indexed) — implement the same
§2.6 fixpoint with very different machinery.  This suite drives all
three over seeded random databases mixing every special relationship
family and asserts they agree on the closure, on firing totals, and on
provenance reachability.
"""

import random

import pytest

from repro.core.entities import CONTRA, INV, ISA, MEMBER, SYN
from repro.core.facts import Fact
from repro.core.store import FactStore
from repro.datasets.synthetic import (
    hierarchy_facts,
    membership_facts,
    random_heap,
)
from repro.rules.builtin import STANDARD_RULES
from repro.rules.dispatch import compile_ruleset, dispatched_closure
from repro.rules.engine import naive_closure, semi_naive_closure
from repro.rules.rule import RelationshipClassifier, RuleContext

SEEDS = range(24)

_COMPILED = compile_ruleset(STANDARD_RULES)


def _random_database(seed: int):
    """A small random database exercising every §3 rule family."""
    rng = random.Random(seed)
    depth = rng.randint(1, 3)
    fanout = rng.randint(1, 3)
    tree, leaves = hierarchy_facts(depth, fanout)
    facts = list(tree)
    facts += membership_facts(leaves[: rng.randint(1, len(leaves))],
                              rng.randint(1, 2))
    facts += random_heap(rng.randint(5, 25), rng.randint(4, 10),
                         rng.randint(2, 5), seed=seed)
    classes = [f"C{i}" for i in range(1 + sum(
        fanout ** level for level in range(1, depth + 1)))]
    entities = classes + [f"E{i}" for i in range(4)]
    # Sprinkle special relationships so the synonym/inversion/
    # contradiction families all fire.
    for _ in range(rng.randint(0, 3)):
        facts.append(Fact(rng.choice(entities), SYN,
                          rng.choice(entities)))
    for _ in range(rng.randint(0, 2)):
        facts.append(Fact(rng.choice(entities), INV,
                          rng.choice(entities)))
    for _ in range(rng.randint(0, 2)):
        facts.append(Fact(rng.choice(entities), CONTRA,
                          rng.choice(entities)))
    for _ in range(rng.randint(0, 2)):
        facts.append(Fact(f"E{rng.randint(0, 3)}", MEMBER,
                          rng.choice(classes)))
    # Deduplicate while keeping order deterministic per seed.
    return list(dict.fromkeys(facts))


def _context(facts):
    return RuleContext(classifier=RelationshipClassifier(FactStore(facts)))


def _reachable_from_base(fact, base, provenance, _memo=None):
    """True if the fact's justification chain grounds out in ``base``.

    Facts in flight are memoized as ungrounded, so a cyclic
    justification (which would be unsound) fails instead of recursing
    forever; proven facts memoize True so shared sub-derivations (and
    duplicated premises) are not re-walked.
    """
    if fact in base:
        return True
    if _memo is None:
        _memo = {}
    if fact in _memo:
        return _memo[fact]
    _memo[fact] = False
    justification = provenance.get(fact)
    grounded = justification is not None and all(
        _reachable_from_base(premise, base, provenance, _memo)
        for premise in set(justification.premises))
    _memo[fact] = grounded
    return grounded


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_on_random_databases(seed):
    facts = _random_database(seed)
    context = _context(facts)

    naive = naive_closure(facts, STANDARD_RULES, context)
    semi = semi_naive_closure(facts, STANDARD_RULES, context,
                              trace=True)
    fast = dispatched_closure(facts, STANDARD_RULES, context,
                              trace=True, compiled=_COMPILED)

    # Identical closures, fact for fact.
    assert set(semi.store) == set(naive.store)
    assert set(fast.store) == set(semi.store)
    assert fast.base_count == semi.base_count
    assert fast.derived_count == semi.derived_count

    # Identical firing attribution between the two delta engines (the
    # naive engine legitimately double-counts a fact rediscovered by
    # two rules in one round, so only its closure is compared).
    assert fast.rule_firings == semi.rule_firings
    assert fast.iterations == semi.iterations

    # Identical provenance coverage, and every justification chain
    # grounds out in the stored facts.
    assert set(fast.provenance) == set(semi.provenance)
    base = set(facts)
    rule_names = {rule.name for rule in STANDARD_RULES}
    for derived, justification in fast.provenance.items():
        assert justification.rule in rule_names
        assert all(premise in fast.store
                   for premise in justification.premises)
        assert _reachable_from_base(derived, base, fast.provenance), \
            f"seed {seed}: {derived} not grounded"


@pytest.mark.parametrize("seed", SEEDS)
def test_dispatched_provenance_is_bit_identical(seed):
    """The documented promise: the dispatched engine's provenance is
    the semi-naive reference's — the same justification for every
    fact, entered in the same order."""
    facts = _random_database(seed)
    context = _context(facts)
    semi = semi_naive_closure(facts, STANDARD_RULES, context, trace=True)
    fast = dispatched_closure(facts, STANDARD_RULES, context, trace=True,
                              compiled=_COMPILED)
    assert fast.provenance == semi.provenance
    assert list(fast.provenance) == list(semi.provenance)


#: Seed 6 drops both synonym rules, which a random 0.6 draw rarely does.
@pytest.mark.parametrize("seed", range(7))
def test_engines_agree_on_ablated_rule_sets(seed):
    """Random rule subsets run the same rounds as the reference: the
    same closure, rounds, firings and provenance in insertion order."""
    rng = random.Random(1000 + seed)
    rules = [r for r in STANDARD_RULES if rng.random() < 0.6]
    if seed == 6:
        rules = [r for r in STANDARD_RULES if not r.name.startswith("syn-")]
    if not rules:
        rules = [STANDARD_RULES[0]]
    facts = _random_database(seed)
    context = _context(facts)
    semi = semi_naive_closure(facts, rules, context, trace=True)
    fast = dispatched_closure(facts, rules, context, trace=True)
    assert list(fast.store) == list(semi.store), \
        f"seed {seed}, rules {[r.name for r in rules]}"
    assert fast.iterations == semi.iterations
    assert fast.rule_firings == semi.rule_firings
    assert list(fast.provenance.items()) == list(semi.provenance.items())
