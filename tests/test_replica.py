"""Replica consistency: a replica that follows the records is identical.

The replication tentpole only works if a replica that applies the
writer's coalesced records — and attaches the published snapshot for a
batch that recomputed the closure, as a pool worker does — reproduces
the primary *exactly*: same base heap, same derived closure, same query
answers, and no rule run to get there.  This suite drives randomized
mutation streams (the same seeded-random database style as the
engine-equivalence harness) through a
:class:`~repro.serve.DatabaseService`, captures the emitted
:class:`~repro.serve.replica.Delta` records in-process (no worker
process needed — the protocol is plain data), follows them on a
replica attached to the shared generations — the constructor a pool
worker uses — and asserts identity.  The last test runs a real pool
whose worker is a thread of this process, so the rule-engine spies see
every call it makes.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
from contextlib import contextmanager

import pytest

import repro.db as db_module
import repro.serve.pool as pool_module
import repro.serve.replica as replica_module
from repro.core.entities import CLASS_RELATIONSHIP, CONTRA, ISA, MEMBER
from repro.core.errors import IntegrityError
from repro.core.facts import Fact
from repro.db import Database
from repro.rules import deletion, dispatch
from repro.serve import DatabaseService, ReplicaPool
from repro.serve.replica import (
    GenerationBootstrap,
    build_replica_from_generation,
    release_attached_stores,
)

from .test_engine_equivalence import _random_database

SEEDS = range(12)


class _Follower:
    """An in-process replica that follows a service's records the way a
    pool worker does: it applies a record with a closure half, and for
    a batch that recomputed the closure it attaches the snapshot
    published for that batch."""

    def __init__(self, snapshot: Database, version: int):
        self._shared = GenerationBootstrap.share(snapshot, version)
        assert self._shared is not None, "publish a folded snapshot first"
        self.replica = build_replica_from_generation(self._shared)
        self.version = version

    def follow(self, delta, snapshot: Database) -> None:
        if delta.version <= self.version:
            return
        if delta.closure_stats is None:
            self.close()
            self.__init__(snapshot, delta.version)
        else:
            self.replica.apply_delta(delta)
            self.version = delta.version

    def close(self) -> None:
        release_attached_stores(self.replica)
        self._shared.unlink()


@contextmanager
def following(service: DatabaseService):
    """A :class:`_Follower` attached to the service's published
    snapshot."""
    follower = _Follower(*service.published_state())
    try:
        yield follower
    finally:
        follower.close()


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


def _recorded(service: DatabaseService) -> list:
    """``(delta, published snapshot)`` for every batch from here on:
    subscribers run after publication, so the snapshot is the record's."""
    records = []
    service.subscribe_deltas(lambda delta: records.append(
        (delta, service.published_state()[0])))
    return records


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_replay_is_bit_identical(seed):
    facts = _random_database(seed)
    service = DatabaseService(Database(facts))
    try:
        with following(service) as follower:
            records = _recorded(service)
            _drive(service, random.Random(1000 + seed), 30)
            reference, final_version = service.published_state()
            for delta, snapshot in records:
                follower.follow(delta, snapshot)
            assert follower.version == final_version
            _assert_identical(follower.replica, reference, seed)
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
        # Bootstrap from the FINAL state...
        with following(service) as follower:
            assert follower.version == service.applied_seq
            # ...then re-apply a contiguous suffix of records that state
            # already reflects: the records since the last recompute (a
            # worker attaches the snapshot for one, it never applies
            # it), at most five.
            suffix = []
            for delta in reversed(deltas[:-1]):
                if delta.closure_stats is None or len(suffix) == 5:
                    break
                suffix.insert(0, delta)
            for delta in suffix:
                follower.replica.apply_delta(delta)
            _assert_identical(follower.replica, service.read_view(), seed)
    finally:
        service.close()


def test_define_rule_reaches_replicas_by_attach():
    service = DatabaseService(Database())
    try:
        with following(service) as follower:
            records = _recorded(service)
            service.define_rule(
                "sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
            service.add("ANN", "MARRIED-TO", "BOB")
            assert records[0][0].closure_stats is None
            assert records[1][0].closure_stats is not None
            for delta, snapshot in records:
                follower.follow(delta, snapshot)
            assert follower.replica.ask("(BOB, MARRIED-TO, ANN)")
            assert set(follower.replica.closure().store) \
                == set(service.read_view().closure().store)
    finally:
        service.close()


def test_coalesced_add_remove_cancels():
    """A fact added and removed inside one batch must not reach the
    replica at all (net-effect coalescing)."""
    service = DatabaseService(Database(), batch_window=0.05)
    try:
        with following(service) as follower:
            records = _recorded(service)
            fact = Fact("FLASH", "∈", "TRANSIENT")
            keep = Fact("KEEP", "∈", "DURABLE")
            t1 = service.add_async(fact)
            t2 = service.remove_async(fact)
            t3 = service.add_async(keep)
            for ticket in (t1, t2, t3):
                ticket.result(timeout=30.0)
            shipped = [f for d, _ in records for f in d.adds + d.removes]
            assert keep in shipped
            for delta, snapshot in records:
                follower.follow(delta, snapshot)
            assert set(follower.replica.facts) \
                == set(service.read_view().facts)
            assert not follower.replica.ask("(FLASH, ∈, TRANSIENT)")
    finally:
        service.close()


#: The ``stats()`` fields a replica takes from the records it applies.
CLOSURE_FIELDS = ("closure_facts", "derived_facts", "iterations",
                  "rule_firings")


@pytest.fixture()
def rule_engine_calls(monkeypatch):
    """Every call into the rule engine's fixpoint and maintenance entry
    points — the closure, its rounds, insertion extension,
    Delete/Rederive — as ``(name, calling thread's name)``."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((name, threading.current_thread().name))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(dispatch, "run_rounds")
    spy(deletion, "run_rounds")
    spy(db_module, "extend_closure")
    spy(db_module, "delete_with_rederivation")
    spy(db_module, "dispatched_closure")
    return calls


def _versions(db: Database):
    """The base heap's and the standard closure store's versions."""
    return db.facts.version, db.standard_closure().store.version


def _not_behind(later, earlier) -> bool:
    return all(a >= b for a, b in zip(later, earlier))


def _assert_same_closure(replica: Database, primary: Database, queries,
                         where) -> None:
    """After a record: the replica is the snapshot the primary
    published for it — facts, closure, closure statistics, answers."""
    assert set(replica.facts) == set(primary.facts), where
    assert set(replica.closure().store) \
        == set(primary.closure().store), where
    mine, theirs = replica.stats(), primary.stats()
    for field in CLOSURE_FIELDS:
        assert mine[field] == theirs[field], (field, where)
    for text in queries:
        assert replica.query(text) == primary.query(text), (text, where)


def _replay_checked(follower: _Follower, records, calls: list,
                    queries) -> None:
    """Follow the records one by one.  Applying a record runs no rule
    and moves no version back, and after every record the replica is
    the snapshot the primary published for it."""
    for delta, primary in records:
        if delta.version <= follower.version:
            continue
        before = _versions(follower.replica)
        calls.clear()
        follower.follow(delta, primary)
        assert calls == [], delta
        if delta.closure_stats is not None:
            assert _not_behind(_versions(follower.replica), before), delta
        assert follower.replica.facts.version >= before[0], delta
        _assert_same_closure(follower.replica, primary, queries, delta)


@pytest.mark.parametrize("seed", range(4))
def test_fact_records_are_applied_not_derived(seed, rule_engine_calls):
    facts = _random_database(seed)
    service = DatabaseService(Database(facts))
    try:
        with following(service) as follower:
            records = _recorded(service)
            _drive(service, random.Random(3000 + seed), 30)
            assert any(delta.closure_stats is not None
                       for delta, _ in records)
            _replay_checked(follower, records, rule_engine_calls,
                            [f"({e}, x, y)" for e in ("C0", "E0", "E1")])
            # A re-attach to the primary's next fold never moves a
            # version back: the replica counted net changes only.
            service.fold()
            with following(service) as reattached:
                assert _not_behind(_versions(reattached.replica),
                                   _versions(follower.replica))
    finally:
        service.close()


def _curated_service() -> DatabaseService:
    """An ``auto_check`` database with a lattice, an ``EARNS`` to
    inherit, and a contradiction to roll back."""
    db = Database(auto_check=True)
    for fact in (("ENGINEER", ISA, "EMPLOYEE"), ("SUE", MEMBER, "ENGINEER"),
                 ("EMPLOYEE", "EARNS", "SALARY"),
                 ("BOB", "WORKS-FOR", "SALES"), ("LIKES", CONTRA, "HATES"),
                 ("ANN", "LIKES", "BOB")):
        db.add(*fact)
    return DatabaseService(db)


CURATED_QUERIES = ["(x, EARNS, y)", "(x, WORKS-FOR, y)", "(x, ∈, y)"]


def test_recomputing_mutations_ship_no_closure_half(rule_engine_calls):
    """``≺`` facts come and go as records (the replica's lattice is
    patched, then dropped); a relationship declaration and an
    ``auto_check`` rollback recompute on the primary, which folds after
    them and ships no closure half — the replica attaches the snapshot
    published for each."""
    service = _curated_service()
    try:
        with following(service) as follower:
            records = _recorded(service)

            def replay():
                _replay_checked(follower, records, rule_engine_calls,
                                CURATED_QUERIES)

            follower.replica.hierarchy()
            lattice = follower.replica.stats()["hierarchy"]
            service.add("MANAGER", ISA, "EMPLOYEE")
            service.add("ANN", MEMBER, "MANAGER")
            replay()
            follower.replica.hierarchy()
            patched = follower.replica.stats()["hierarchy"]
            assert patched["patches"] == lattice["patches"] + 1
            assert patched["rebuilds"] == lattice["rebuilds"]

            service.remove("MANAGER", ISA, "EMPLOYEE")
            replay()
            assert not follower.replica.stats()["hierarchy"]["cached"]
            follower.replica.hierarchy()
            assert follower.replica.stats()["hierarchy"]["rebuilds"] \
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
            assert follower.version == recomputed[1].version
    finally:
        service.close()


class _WorkerEnd:
    """The worker's end of a pipe.  The pool closes its copy of that end
    once the worker has started, which a thread would share."""

    def __init__(self, conn):
        self.send, self.recv = conn.send, conn.recv

    def close(self) -> None:
        pass


class _ThreadContext:
    """A ``multiprocessing`` context whose workers are threads of this
    process, so the rule-engine spies see every call a worker makes."""

    @staticmethod
    def Pipe(duplex: bool = True):  # noqa: N802 - multiprocessing API
        parent, child = multiprocessing.Pipe(duplex)
        return parent, _WorkerEnd(child)

    class Process(threading.Thread):
        def terminate(self) -> None:
            """A worker thread ends on ``("stop",)``."""


def test_a_pool_worker_derives_nothing(monkeypatch, rule_engine_calls):
    """Records and generations alike: whatever the primary's writer
    did — adds and removes, ``limit``, ``include`` / ``exclude`` down to
    no rule at all, ``define_rule``, an ``(r, ∈, R_c)`` declaration, an
    ``auto_check`` rollback — the worker reaches the primary's published
    snapshot without one call into the rule engine."""
    attached = []

    def attach(state):
        db, version = real_attach(state)
        attached.append(db)
        return db, version

    real_attach = replica_module._attach
    monkeypatch.setattr(replica_module, "_attach", attach)
    monkeypatch.setattr(pool_module.multiprocessing, "get_context",
                        lambda method: _ThreadContext)
    service = _curated_service()
    rule_engine_calls.clear()       # what building the primary took
    pool = ReplicaPool(service, workers=1)

    def rollback():
        with pytest.raises(IntegrityError):
            service.add_facts([("CARL", MEMBER, "ENGINEER"),
                               ("ANN", "HATES", "BOB")])

    names = [rule.name for rule in service.read_view().rules]
    steps = [
        ("add", lambda: service.add("MANAGER", ISA, "EMPLOYEE")),
        ("add", lambda: service.add("ANN", MEMBER, "MANAGER")),
        ("remove", lambda: service.remove("MANAGER", ISA, "EMPLOYEE")),
        ("limit 2", lambda: service.limit(2)),
        ("limit 1", lambda: service.limit(1)),
    ]
    steps += [(f"exclude {name}", lambda name=name: service.exclude(name))
              for name in names]
    steps.append(("add, no rule", lambda: service.add("SUE", "LIKES",
                                                      "BOB")))
    steps += [(f"include {name}", lambda name=name: service.include(name))
              for name in names]
    steps += [
        ("define_rule", lambda: service.define_rule(
            "sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")),
        ("add", lambda: service.add("ANN", "MARRIED-TO", "BOB")),
        ("declaration", lambda: service.add("WORKS-FOR", MEMBER,
                                            CLASS_RELATIONSHIP)),
        ("rollback", rollback),
    ]
    queries = CURATED_QUERIES + ["(BOB, MARRIED-TO, x)"]
    try:
        for step, write in [("attach", lambda: None)] + steps:
            write()
            pool.wait_for_version(service.applied_seq, all_workers=True,
                                  timeout=60.0)
            _assert_same_closure(attached[-1], service.read_view(),
                                 queries, step)
            # Only the primary's writer derived anything.
            assert {thread for _, thread in rule_engine_calls} \
                <= {"repro-serve-writer"}, (step, rule_engine_calls)
        assert len(attached) > 1
    finally:
        pool.close()
        service.close()
