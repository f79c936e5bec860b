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

from repro.core.facts import Fact
from repro.db import Database
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
    re-applying those deltas — re-adding a present fact and
    re-removing an absent one are no-ops."""
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
                replica.apply_delta(delta.adds, delta.removes)
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
