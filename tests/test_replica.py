"""Replica consistency: a delta-replayed replica is bit-identical.

The replication tentpole only works if applying the writer's coalesced
delta stream through the database's incremental maintenance reproduces
the primary *exactly* — same base heap, same derived closure, same
query answers.  This suite drives randomized mutation streams (the
same seeded-random database style as the engine-equivalence harness)
through a :class:`~repro.serve.DatabaseService`, captures the emitted
:class:`~repro.serve.replica.Delta` records in-process (no worker
process needed — the protocol is plain data), replays them onto a
replica attached to the initial snapshot's shared generations — the
constructor a pool worker uses — and asserts identity.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

import repro.db as db_module
from repro.core.entities import CLASS_RELATIONSHIP, CONTRA, ISA, MEMBER
from repro.core.errors import IntegrityError
from repro.core.facts import Fact
from repro.db import Database
from repro.rules import deletion, dispatch
from repro.serve import DatabaseService
from repro.serve.replica import (
    GenerationBootstrap,
    apply_delta_message,
    build_replica_from_generation,
    release_attached_stores,
)

from .test_engine_equivalence import _random_database

SEEDS = range(12)


@contextmanager
def attached_replica(service: DatabaseService):
    """``(replica, version)``: an in-process replica attached to the
    service's published snapshot, as a worker is."""
    shared = GenerationBootstrap.share(*service.published_state())
    assert shared is not None, "publish a folded snapshot first"
    try:
        replica = build_replica_from_generation(shared)
        try:
            yield replica, shared.version
        finally:
            release_attached_stores(replica)
    finally:
        shared.unlink()


def _assert_identical(replica: Database, reference: Database,
                      seed: int) -> None:
    """Bit-identical state: base heap, derived closure, answers."""
    assert set(replica.facts) == set(reference.facts), f"seed {seed}"
    assert set(replica.closure().store) == \
        set(reference.closure().store), f"seed {seed}"
    # Spot-check answers through the public query path too.
    for entity in ("C0", "E0", "E1"):
        assert replica.query(f"({entity}, x, y)") == \
            reference.query(f"({entity}, x, y)"), f"seed {seed}"


def _drive(service: DatabaseService, rng: random.Random,
           operations: int) -> None:
    """A randomized mutation stream: adds, removes of known facts,
    batch adds, and (occasionally) rule/limit control operations."""
    tickets = []
    for index in range(operations):
        roll = rng.random()
        if roll < 0.55:
            tickets.append(service.add_async(
                Fact(f"E{rng.randint(0, 5)}", "∈",
                     f"C{rng.randint(0, 3)}")))
        elif roll < 0.80:
            existing = list(service.read_view().facts)
            if existing:
                tickets.append(service.remove_async(
                    rng.choice(existing)))
        elif roll < 0.90:
            tickets.append(service.add_facts_async([
                Fact(f"B{index}", "R{0}".format(rng.randint(0, 2)),
                     f"E{rng.randint(0, 5)}")
                for _ in range(rng.randint(1, 4))]))
        elif roll < 0.95:
            service.limit(rng.choice([1, 2, 3]))
        else:
            # Toggle a built-in rule off and (usually) back on.
            service.exclude("syn-symmetry")
            if rng.random() < 0.8:
                service.include("syn-symmetry")
    for ticket in tickets:
        ticket.result(timeout=60.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_replay_is_bit_identical(seed):
    facts = _random_database(seed)
    service = DatabaseService(Database(facts))
    deltas = []
    try:
        with attached_replica(service) as (replica, version):
            service.subscribe_deltas(deltas.append)
            _drive(service, random.Random(1000 + seed), 30)
            reference, final_version = service.published_state()
            for delta in deltas:
                if delta.version > version:
                    apply_delta_message(replica, delta)
                    version = delta.version
            assert version == final_version
            _assert_identical(replica, reference, seed)
    finally:
        service.close()


@pytest.mark.parametrize("seed", range(4))
def test_overlap_replay_is_idempotent(seed):
    """The overlap case: a replica whose bootstrap state is already
    *ahead* of the delta suffix it then receives must be unchanged by
    re-applying those deltas.  Both halves of a record are set
    operations, so the replay is exactly idempotent: each fact a
    record touches ends as the last record touching it left it — as
    it already is in the final state — and every other fact stays."""
    facts = _random_database(seed)
    service = DatabaseService(Database(facts))
    deltas = []
    try:
        service.subscribe_deltas(deltas.append)
        _drive(service, random.Random(2000 + seed), 15)
        service.fold()      # only a folded snapshot can be attached
        reference, final_version = service.published_state()
        # Bootstrap from the FINAL state...
        with attached_replica(service) as (replica, version):
            assert version == final_version
            # ...then re-apply the fact content of a contiguous delta
            # suffix that state already reflects.  (Controls are not
            # re-applied: the bootstrap carries the configuration.)
            for delta in deltas[-5:]:
                replica.apply_delta(delta)
            _assert_identical(replica, reference, seed)
    finally:
        service.close()


def test_define_rule_ships_as_control():
    service = DatabaseService(Database())
    deltas = []
    try:
        with attached_replica(service) as (replica, _):
            service.subscribe_deltas(deltas.append)
            service.define_rule(
                "sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
            service.add("ANN", "MARRIED-TO", "BOB")
            reference, _ = service.published_state()
            for delta in deltas:
                apply_delta_message(replica, delta)
            assert replica.ask("(BOB, MARRIED-TO, ANN)")
            assert set(replica.closure().store) \
                == set(reference.closure().store)
    finally:
        service.close()


def test_coalesced_add_remove_cancels():
    """A fact added and removed inside one batch must not reach the
    replica at all (net-effect coalescing)."""
    service = DatabaseService(Database(), batch_window=0.05)
    deltas = []
    try:
        with attached_replica(service) as (replica, _):
            service.subscribe_deltas(deltas.append)
            fact = Fact("FLASH", "∈", "TRANSIENT")
            keep = Fact("KEEP", "∈", "DURABLE")
            t1 = service.add_async(fact)
            t2 = service.remove_async(fact)
            t3 = service.add_async(keep)
            for ticket in (t1, t2, t3):
                ticket.result(timeout=30.0)
            reference, _ = service.published_state()
            shipped = [f for d in deltas for f in d.adds + d.removes]
            assert keep in shipped
            for delta in deltas:
                apply_delta_message(replica, delta)
            assert set(replica.facts) == set(reference.facts)
            assert not replica.ask("(FLASH, ∈, TRANSIENT)")
    finally:
        service.close()


#: The ``stats()`` fields a replica takes from the records it applies.
CLOSURE_FIELDS = ("closure_facts", "derived_facts", "iterations",
                  "rule_firings")


@pytest.fixture()
def rule_engine_calls(monkeypatch):
    """Every call into the rule engine's fixpoint and maintenance entry
    points — the closure's rounds, insertion extension, Delete/Rederive
    — by name."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(dispatch, "run_rounds")
    spy(deletion, "run_rounds")
    spy(db_module, "extend_closure")
    spy(db_module, "delete_with_rederivation")
    return calls


def _recorded(service: DatabaseService) -> list:
    """``(delta, published snapshot)`` for every batch from here on:
    subscribers run after publication, so the snapshot is the record's."""
    records = []
    service.subscribe_deltas(lambda delta: records.append(
        (delta, service.published_state()[0])))
    return records


def _versions(db: Database):
    """The base heap's and the standard closure store's versions."""
    return db.facts.version, db.standard_closure().store.version


def _not_behind(later, earlier) -> bool:
    return all(a >= b for a, b in zip(later, earlier))


def _replay_checked(replica: Database, version: int, records,
                    calls: list, queries) -> int:
    """Apply the records above ``version`` one by one and return the
    version reached.  A record with a closure half runs no rule, and
    after every record the replica is the snapshot the primary
    published for it."""
    for delta, primary in records:
        if delta.version <= version:
            continue
        before = _versions(replica)
        calls.clear()
        apply_delta_message(replica, delta)
        version = delta.version
        if delta.closure_stats is not None and not delta.controls:
            assert calls == [], delta
            assert _not_behind(_versions(replica), before), delta
        assert replica.facts.version >= before[0], delta
        assert set(replica.facts) == set(primary.facts), delta
        assert set(replica.closure().store) \
            == set(primary.closure().store), delta
        mine, theirs = replica.stats(), primary.stats()
        for field in CLOSURE_FIELDS:
            assert mine[field] == theirs[field], (field, delta)
        for text in queries:
            assert replica.query(text) == primary.query(text), text
    return version


@pytest.mark.parametrize("seed", range(4))
def test_fact_records_are_applied_not_derived(seed, rule_engine_calls):
    facts = _random_database(seed)
    service = DatabaseService(Database(facts))
    try:
        with attached_replica(service) as (replica, version):
            records = _recorded(service)
            _drive(service, random.Random(3000 + seed), 30)
            assert any(delta.closure_stats is not None
                       for delta, _ in records)
            _replay_checked(replica, version, records, rule_engine_calls,
                            [f"({e}, x, y)" for e in ("C0", "E0", "E1")])
            # A re-attach to the primary's next fold never moves a
            # version back: the replica counted net changes only.
            service.fold()
            with attached_replica(service) as (reattached, _):
                assert _not_behind(_versions(reattached), _versions(replica))
    finally:
        service.close()


def test_recomputing_mutations_ship_no_closure_half(rule_engine_calls):
    """``≺`` facts come and go as records (the replica's lattice is
    patched, then dropped); a relationship declaration and an
    ``auto_check`` rollback recompute on the primary, which folds after
    them and ships no closure half — applied as a record (what a
    worker does when the fold's share fails), the replica recomputes
    to the same closure and statistics."""
    db = Database(auto_check=True)
    for fact in (("ENGINEER", ISA, "EMPLOYEE"), ("SUE", MEMBER, "ENGINEER"),
                 ("EMPLOYEE", "EARNS", "SALARY"),
                 ("BOB", "WORKS-FOR", "SALES"), ("LIKES", CONTRA, "HATES"),
                 ("ANN", "LIKES", "BOB")):
        db.add(*fact)
    service = DatabaseService(db)
    queries = ["(x, EARNS, y)", "(x, WORKS-FOR, y)", "(x, ∈, y)"]
    try:
        with attached_replica(service) as (replica, version):
            records = _recorded(service)

            def replay():
                return _replay_checked(replica, version, records,
                                       rule_engine_calls, queries)

            replica.hierarchy()
            lattice = replica.stats()["hierarchy"]
            service.add("MANAGER", ISA, "EMPLOYEE")
            service.add("ANN", MEMBER, "MANAGER")
            version = replay()
            replica.hierarchy()
            patched = replica.stats()["hierarchy"]
            assert patched["patches"] == lattice["patches"] + 1
            assert patched["rebuilds"] == lattice["rebuilds"]

            service.remove("MANAGER", ISA, "EMPLOYEE")
            version = replay()
            assert not replica.stats()["hierarchy"]["cached"]
            replica.hierarchy()
            assert replica.stats()["hierarchy"]["rebuilds"] \
                == lattice["rebuilds"] + 1
            assert service.stats()["folds"] == 0

            service.add("WORKS-FOR", MEMBER, CLASS_RELATIONSHIP)
            with pytest.raises(IntegrityError):
                service.add_facts([("CARL", MEMBER, "ENGINEER"),
                                   ("ANN", "HATES", "BOB")])
            recomputed = [delta for delta, _ in records[3:]]
            assert len(recomputed) == 2
            for delta in recomputed:
                assert delta.closure_stats is None and delta.folded
                assert delta.closure_adds == delta.closure_removes == ()
            assert recomputed[1].adds == (Fact("CARL", MEMBER, "ENGINEER"),)
            assert service.stats()["folds"] == 2
            replay()
    finally:
        service.close()
