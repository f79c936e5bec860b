"""ReplicaPool tests: primary-first routing, replica reads,
read-your-writes on both routes, primary fallback, crash/respawn
failover, and the one generation lifecycle (the writer's fold is
shared, workers re-attach, retired generation files are unlinked).

A lone sequential read is served by the primary; tests about the worker
route issue their reads inside ``primary_busy(pool)``.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from contextlib import nullcontext

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    ParseError,
    ReplicaError,
    ServiceClosed,
)
from repro.core.interned import OVERLAY_BUDGET
from repro.db import Database
from repro.obs import Telemetry, use_telemetry
from repro.serve import DatabaseService, ReplicaPool
from repro.serve.pool import _Worker

from .conftest import primary_busy, replica_served


def _database() -> Database:
    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    db.add("EMPLOYEE", "EARNS", "SALARY")
    return db


@pytest.fixture()
def pooled():
    service = DatabaseService(_database())
    pool = ReplicaPool(service, workers=2, read_timeout=60.0)
    try:
        yield service, pool
    finally:
        pool.close()
        service.close()


class TestReplicaReads:
    def test_query_served_by_replica(self, pooled):
        _, pool = pooled
        with primary_busy(pool):
            assert ("JOHN",) in pool.query("(x, ∈, EMPLOYEE)")
        assert replica_served(pool) == 1
        assert pool.stats()["fallback_reads"] == 0

    def test_all_read_operations(self, pooled):
        """Both routes answer every verb in the same shape."""
        _, pool = pooled
        for route in (nullcontext(), primary_busy(pool)):
            with route:
                assert pool.ask("(JOHN, EARNS, SALARY)") is True
                assert any(f[0] == "JOHN"
                           for f in pool.match("(JOHN, *, *)"))
                assert "EMPLOYEE" in pool.navigate("(JOHN, *, *)")
                assert any(tuple(f) == ("JOHN", "∈", "EMPLOYEE")
                           for f in pool.try_("JOHN"))
                outcome = pool.probe("(JOHN, EARNS, y)")
                assert outcome["succeeded"] is True
                assert ("SALARY",) in outcome["value"]
                # A replica's own statistics, whichever route reads
                # take.
                assert pool.database_stats()["base_facts"] > 0
        stats = pool.stats()
        assert stats["reads"] == 12
        assert stats["primary_reads"] == 5
        assert stats["fallback_reads"] == 0
        assert replica_served(pool) == 7

    def test_reads_spread_across_workers(self, pooled):
        _, pool = pooled
        with primary_busy(pool):
            for _ in range(6):
                pool.ask("(JOHN, ∈, EMPLOYEE)")
        assert replica_served(pool) == 6
        assert pool.stats()["fallback_reads"] == 0

    def test_typed_errors_cross_the_pipe(self, pooled):
        _, pool = pooled
        with primary_busy(pool):
            with pytest.raises(ParseError):
                pool.query("(x, BOGUS")
        assert replica_served(pool) == 1


class TestPrimaryFirstRouting:
    def test_lone_read_is_primary_served(self, pooled):
        _, pool = pooled
        before = pool.stats()
        assert ("JOHN",) in pool.query("(x, ∈, EMPLOYEE)")
        after = pool.stats()
        assert after["reads"] == before["reads"] + 1
        assert after["primary_reads"] == before["primary_reads"] + 1
        assert after["fallback_reads"] == before["fallback_reads"]
        assert replica_served(pool) == 0

    def test_of_two_overlapping_reads_one_reaches_a_worker(
            self, pooled, monkeypatch):
        """The first read is parked inside the primary (its service
        call blocks on an event); the second, issued meanwhile, must
        not queue behind it."""
        service, pool = pooled
        entered, release = threading.Event(), threading.Event()
        real_read = service.read

        def parked_read(*args, **kwargs):
            entered.set()
            assert release.wait(30.0)
            return real_read(*args, **kwargs)

        monkeypatch.setattr(service, "read", parked_read)
        answers = []
        first = threading.Thread(
            target=lambda: answers.append(
                pool.ask("(JOHN, ∈, EMPLOYEE)")))
        first.start()
        try:
            assert entered.wait(30.0)
            assert pool.ask("(JOHN, EARNS, SALARY)") is True
            stats = pool.stats()
            assert stats["primary_reads"] == 1
            assert stats["fallback_reads"] == 0
            assert replica_served(pool) == 1
        finally:
            release.set()
            first.join(30.0)
        assert not first.is_alive()
        assert answers == [True]
        # The slot came back: the next lone read is the primary's.
        pool.ask("(JOHN, ∈, EMPLOYEE)")
        assert pool.stats()["primary_reads"] == 2

    def test_slot_released_when_the_primary_read_raises(self, pooled):
        _, pool = pooled
        with pytest.raises(ParseError):
            pool.query("(x, BOGUS")
        assert not pool._primary_slot.locked()
        pool.ask("(JOHN, ∈, EMPLOYEE)")
        stats = pool.stats()
        assert stats["primary_reads"] == 2
        assert replica_served(pool) == 0

    def test_slot_released_when_the_primary_read_times_out(self, pooled):
        _, pool = pooled
        with pytest.raises(DeadlineExceeded):
            pool.query("(x, r, y) and (y, r2, z) and (z, r3, w)",
                       deadline=0.0)
        assert not pool._primary_slot.locked()
        pool.ask("(JOHN, ∈, EMPLOYEE)")
        assert pool.stats()["primary_reads"] == 2

    def test_concurrent_readers_account_for_every_read(self, pooled):
        """Stress: more reader threads than cores, short switch
        interval; every read is answered and lands in exactly one of
        the three counters."""
        import sys

        _, pool = pooled
        failures = []

        def reader():
            try:
                for _ in range(25):
                    if pool.ask("(JOHN, EARNS, SALARY)") is not True:
                        failures.append("wrong answer")
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = pool.stats()
        assert stats["reads"] == 150
        assert stats["primary_reads"] >= 1
        assert stats["fallback_reads"] == 0
        assert replica_served(pool) == 150 - stats["primary_reads"]
        assert not pool._primary_slot.locked()


class TestReadYourWrites:
    def test_settled_ticket_routes_to_fresh_replica(self, pooled):
        service, pool = pooled
        ticket = service.add_async(("MARY", "∈", "EMPLOYEE"))
        ticket.result(timeout=30.0)
        assert ticket.version is not None
        # Must observe the write on either route.
        assert pool.ask("(MARY, EARNS, SALARY)", ticket=ticket)
        assert pool.stats()["primary_reads"] == 1
        with primary_busy(pool):
            assert pool.ask("(MARY, EARNS, SALARY)", ticket=ticket)
        assert pool.stats()["primary_reads"] == 1

    def test_unsettled_ticket_waits_for_the_write(self, pooled):
        service, pool = pooled
        ticket = service.add_async(("PETE", "∈", "EMPLOYEE"))
        # No explicit result() call: the pool settles it.
        assert pool.ask("(PETE, ∈, EMPLOYEE)", ticket=ticket)
        late = service.add_async(("PAUL", "∈", "EMPLOYEE"))
        with primary_busy(pool):
            assert pool.ask("(PAUL, ∈, EMPLOYEE)", ticket=late)

    def test_stale_min_version_falls_back_to_primary(self, pooled):
        service, pool = pooled
        ticket = service.add_async(("ZOE", "∈", "EMPLOYEE"))
        ticket.result(timeout=30.0)
        # A replica is wanted (the primary is busy) but the floor is
        # far beyond any of them: the primary answers anyway, and that
        # is a fallback, not a primary-first read.
        before = pool.stats()
        with primary_busy(pool):
            assert pool.ask("(ZOE, ∈, EMPLOYEE)",
                            min_version=ticket.version + 1000)
        after = pool.stats()
        assert after["fallback_reads"] == before["fallback_reads"] + 1
        assert after["primary_reads"] == before["primary_reads"]

    def test_replicas_converge_to_primary_version(self, pooled):
        service, pool = pooled
        ticket = service.add_async(("ANA", "∈", "EMPLOYEE"))
        ticket.result(timeout=30.0)
        pool.wait_for_version(ticket.version, all_workers=True,
                              timeout=30.0)
        stats = pool.stats()
        assert stats["max_lag"] == 0
        assert all(v == stats["primary_version"]
                   for v in stats["applied_versions"])


class TestFailover:
    def test_crash_respawn_and_reads_survive(self, pooled):
        service, pool = pooled
        ticket = service.add_async(("EVE", "∈", "EMPLOYEE"))
        ticket.result(timeout=30.0)
        pool.wait_for_version(ticket.version, all_workers=True,
                              timeout=30.0)
        pool.crash_worker(0)
        deadline_at = time.monotonic() + 60.0
        while time.monotonic() < deadline_at:
            # Reads never fail during the outage window, on either
            # route.
            assert pool.ask("(EVE, ∈, EMPLOYEE)", ticket=ticket)
            with primary_busy(pool):
                assert pool.ask("(EVE, ∈, EMPLOYEE)", ticket=ticket)
            stats = pool.stats()
            if (stats["alive"] == stats["workers"]
                    and stats["respawns"] >= 1
                    and stats["max_lag"] == 0):
                break
            time.sleep(0.05)
        stats = pool.stats()
        assert stats["worker_deaths"] == 1
        assert stats["respawns"] == 1
        assert stats["alive"] == stats["workers"]
        # The respawned worker bootstrapped past the crash point and
        # serves current data.
        before = pool.stats()["fallback_reads"]
        with primary_busy(pool):
            for _ in range(2):      # rotation: once per worker
                assert pool.ask("(EVE, ∈, EMPLOYEE)", ticket=ticket)
        assert pool.stats()["fallback_reads"] == before

    def test_reads_fall_back_while_no_worker_is_alive(self, monkeypatch):
        service = DatabaseService(_database())
        pool = ReplicaPool(service, workers=1)
        # Hold the replacement back, to see the window before it.
        monkeypatch.setattr(pool, "_respawn_slot", lambda *slot: None)
        try:
            pool.crash_worker(0)
            deadline_at = time.monotonic() + 30.0
            while time.monotonic() < deadline_at:
                if pool.stats()["alive"] == 0:
                    break
                time.sleep(0.02)
            assert pool.stats()["alive"] == 0
            # A read that wants a replica falls back to the primary;
            # answers still flow.
            with primary_busy(pool):
                assert pool.ask("(JOHN, ∈, EMPLOYEE)")
            assert pool.stats()["fallback_reads"] >= 1
        finally:
            pool.close()
            service.close()


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_reads(self, pooled):
        service, pool = pooled
        pool.close()
        pool.close()
        with pytest.raises(ServiceClosed):
            pool.query("(x, ∈, EMPLOYEE)")

    def test_context_manager(self):
        service = DatabaseService(_database())
        with ReplicaPool(service, workers=1) as pool:
            assert pool.ask("(JOHN, ∈, EMPLOYEE)")
        assert pool.closed
        service.close()

    def test_stats_shape(self, pooled):
        _, pool = pooled
        stats = pool.stats()
        for key in ("workers", "alive", "primary_version",
                    "applied_versions", "max_lag", "reads",
                    "primary_reads", "fallback_reads", "deltas_shipped",
                    "respawns"):
            assert key in stats
        assert stats["workers"] == 2

    def test_lag_stats_after_writes(self, pooled):
        service, pool = pooled
        ticket = service.add_async(("LAG", "∈", "EMPLOYEE"))
        ticket.result(timeout=30.0)
        pool.wait_for_version(ticket.version, all_workers=True,
                              timeout=30.0)
        lag = pool.lag_stats()
        assert lag["samples"] >= 1
        assert lag["p50_s"] >= 0.0
        assert lag["max_s"] >= lag["p50_s"]

    def test_invalid_worker_count(self):
        service = DatabaseService(_database())
        try:
            with pytest.raises(ValueError):
                ReplicaPool(service, workers=0)
        finally:
            service.close()


class TestDurableService:
    def test_pool_over_durable_service_attaches_and_sees_journaled_writes(
            self, tmp_path):
        from repro.storage.session import open_database

        directory = tmp_path / "state"
        db, session = open_database(directory)
        db.add("DISK", "∈", "EMPLOYEE")   # journaled via the session
        service = DatabaseService(db, session=session)
        pool = ReplicaPool(service, workers=1)
        try:
            with primary_busy(pool):
                assert pool.ask("(DISK, ∈, EMPLOYEE)")
            # Deltas flow to a worker that never read the directory.
            ticket = service.add_async(("LATER", "∈", "EMPLOYEE"))
            ticket.result(timeout=30.0)
            pool.wait_for_version(ticket.version, all_workers=True,
                                  timeout=30.0)
            before = pool.stats()["fallback_reads"]
            with primary_busy(pool):
                assert pool.ask("(LATER, ∈, EMPLOYEE)", ticket=ticket)
            # The replica itself served it — no primary fallback.
            assert pool.stats()["fallback_reads"] == before
            assert replica_served(pool) == 2
        finally:
            pool.close()
            service.close()
            session.close()


def _gen_segments():
    import os
    if not os.path.isdir("/dev/shm"):
        return None
    return sorted(p for p in os.listdir("/dev/shm")
                  if p.startswith("repro-gen-"))


def _settle(pool, ticket):
    """Every live worker has applied ``ticket`` and every re-attach has
    been acknowledged (the ack is what unlinks a retired pair)."""
    ticket.result(timeout=60.0)
    pool.wait_for_version(ticket.version, all_workers=True, timeout=60.0)


def _respawned(pool):
    deadline_at = time.monotonic() + 60.0
    while time.monotonic() < deadline_at:
        stats = pool.stats()
        if stats["alive"] == stats["workers"] and stats["respawns"]:
            return
        time.sleep(0.05)
    raise AssertionError(f"no respawn: {pool.stats()}")


class TestGenerationBootstrap:
    """Workers attach the shared-memory generations the pool shares at
    construction and at every writer fold."""

    def test_default_mode_and_stats(self, pooled):
        service, pool = pooled
        stats = pool.stats()
        assert stats["generation_seq"] == service.applied_seq
        assert stats["generation_log"] == 0
        assert stats["compactions"] == 0
        assert stats["share_failures"] == 0
        assert "bootstrap" not in stats and "compact_after" not in stats

    def test_attached_replicas_answer_like_the_primary(self):
        """Attach consistency across a 2-worker pool: generation-attached
        replicas answer exactly like the snapshot they were shared
        from."""
        service = DatabaseService(_database())
        shapes = ["(x, ∈, EMPLOYEE)", "(JOHN, r, y)", "(x, r, SALARY)",
                  "(x, ≺, y)"]
        try:
            with ReplicaPool(service, workers=2) as pool, \
                    primary_busy(pool):
                for shape in shapes:
                    assert pool.query(shape) == service.query(shape)
                assert (sorted(map(tuple, pool.match("(JOHN, *, *)")))
                        == sorted(map(tuple,
                                      service.match("(JOHN, *, *)"))))
                assert (pool.navigate("(JOHN, *, *)")
                        == service.navigate("(JOHN, *, *)").render())
                assert pool.stats()["fallback_reads"] == 0
                assert replica_served(pool) == len(shapes) + 2
        finally:
            service.close()

    def test_deltas_flow_after_attach(self, pooled):
        service, pool = pooled
        ticket = service.add_async(("GEN", "∈", "EMPLOYEE"))
        ticket.result(timeout=30.0)
        pool.wait_for_version(ticket.version, all_workers=True,
                              timeout=30.0)
        before = pool.stats()["fallback_reads"]
        with primary_busy(pool):
            assert pool.ask("(GEN, EARNS, SALARY)", ticket=ticket)
        assert pool.stats()["fallback_reads"] == before

    def test_respawn_replays_delta_suffix(self, pooled):
        """A worker spawned after writes attaches the original
        generation and replays the buffered suffix."""
        service, pool = pooled
        ticket = service.add_async(("SUFFIX", "∈", "EMPLOYEE"))
        ticket.result(timeout=30.0)
        pool.wait_for_version(ticket.version, all_workers=True,
                              timeout=30.0)
        assert pool.stats()["generation_log"] >= 1
        pool.crash_worker(0)
        _respawned(pool)
        pool.wait_for_version(ticket.version, all_workers=True,
                              timeout=30.0)
        before = pool.stats()["fallback_reads"]
        with primary_busy(pool):
            for _ in range(2):      # rotation: once per worker
                assert pool.ask("(SUFFIX, EARNS, SALARY)", ticket=ticket)
        assert pool.stats()["fallback_reads"] == before

    def test_compact_generation_reattaches_live_workers(self, pooled):
        """A fold re-attaches every live worker to what it produced."""
        service, pool = pooled
        ticket = service.add_async(("COMPACT", "∈", "EMPLOYEE"))
        _settle(pool, ticket)
        old_seq = pool.stats()["generation_seq"]
        assert pool.stats()["generation_log"] == 1
        service.fold()
        pool.wait_for_version(service.applied_seq, all_workers=True,
                              timeout=60.0)
        stats = pool.stats()
        assert stats["generation_seq"] == service.applied_seq > old_seq
        assert stats["generation_log"] == 0
        assert stats["compactions"] == service.stats()["folds"] == 1
        # Old segments were unlinked once every worker re-attached.
        assert stats["retired_segments"] == 0
        assert stats["alive"] == stats["workers"]
        before = stats["fallback_reads"]
        with primary_busy(pool):
            for _ in range(2):      # rotation: once per worker
                assert pool.ask("(COMPACT, EARNS, SALARY)", ticket=ticket)
        assert pool.stats()["fallback_reads"] == before

    def test_declaration_ends_in_a_fold_and_a_reattach(self, pooled):
        """An ``(r, ∈, R_c)`` declaration is the one fact the primary
        cannot maintain incrementally: it recomputes, folds after the
        batch, and every worker attaches that closure — a fact record
        never makes a worker recompute."""
        service, pool = pooled
        ticket = service.add_async(("JOHN", "WORKS-FOR", "SALES"))
        _settle(pool, ticket)
        assert service.stats()["folds"] == 0
        assert pool.stats()["generation_log"] == 1
        ticket = service.add_async(("EARNS", "∈", "CLASS-RELATIONSHIP"))
        _settle(pool, ticket)
        assert service.stats()["folds"] == 1
        stats = pool.stats()
        assert stats["compactions"] == 1
        assert stats["generation_seq"] == ticket.version
        assert stats["generation_log"] == 0
        assert stats["retired_segments"] == 0
        primary = service.database_stats()
        for _ in range(2):          # rotation: once per worker
            replica = pool.database_stats(min_version=ticket.version)
            for field in ("closure_facts", "derived_facts", "iterations",
                          "rule_firings"):
                assert replica[field] == primary[field], field
        with primary_busy(pool):
            # EARNS is a class relationship now: JOHN inherits nothing.
            assert not pool.ask("(JOHN, EARNS, SALARY)", ticket=ticket)
            assert pool.ask("(JOHN, WORKS-FOR, SALES)", ticket=ticket)

    def test_auto_compaction_folds_log_without_failed_reads(self):
        """The regression behind the one lifecycle: writes past several
        budgets leave a worker attached to the writer's last fold with
        an overlay inside the budget, so a read it serves still runs in
        the id domain (at the parent commit the pool never compacted by
        itself and the worker carried every write in its overlay)."""
        writes = 3 * OVERLAY_BUDGET + 1
        with use_telemetry(Telemetry()):        # workers collect metrics
            service = DatabaseService(_database())
            pool = ReplicaPool(service, workers=1, read_timeout=60.0)
            try:
                ticket = None
                for i in range(writes):
                    # One batch each, so every write is its own delta.
                    ticket = service.add_async((f"AUTO{i}", "∈", "EMPLOYEE"))
                    ticket.result(timeout=30.0)
                _settle(pool, ticket)
                folds = service.stats()["folds"]
                assert folds >= 3
                stats = pool.stats()
                assert stats["compactions"] == folds
                assert stats["generation_log"] <= OVERLAY_BUDGET
                assert stats["retired_segments"] == 0
                assert stats["share_failures"] == 0
                assert stats["alive"] == stats["workers"] == 1
                segments = _gen_segments()
                if segments is not None:    # one file, however many folds
                    assert len([name for name in segments
                                if f"-{os.getpid()}-" in name]) == 1

                pool.metrics(timeout=30.0)
                plans = _worker_counter(pool, "exec.plans")
                served = replica_served(pool)
                with primary_busy(pool):
                    for i in (0, writes // 2, writes - 1):
                        assert pool.query(
                            f"(AUTO{i}, ∈, x) and (x, EARNS, y)",
                            ticket=ticket) == {("EMPLOYEE", "SALARY")}
                assert replica_served(pool) == served + 3
                assert pool.stats()["fallback_reads"] == 0
                pool.metrics(timeout=30.0)
                assert _worker_counter(pool, "exec.plans") >= plans + 3
                # Base heap and closure each stay inside the budget.
                store = pool.database_stats()["store"]
                assert store["overlay_facts"] + store["tombstones"] \
                    <= 2 * OVERLAY_BUDGET
                # One generation, counted once, holds every write.
                assert store["generation_facts"] > writes
            finally:
                pool.close()
                service.close()

    def test_control_ops_reach_workers_by_reattach(self):
        """``exclude`` / ``include`` / ``limit`` recompute a closure
        that is built folded, so the writer does not fold after them;
        the pool still shares the recomputed closure, and the worker
        attaches it instead of recomputing it."""
        db = _database()
        for i in range(2 * OVERLAY_BUDGET):
            db.add(f"W{i}", "∈", "EMPLOYEE")
        service = DatabaseService(db)
        pool = ReplicaPool(service, workers=1, read_timeout=60.0)
        try:
            firings = sum(pool.database_stats()["rule_firings"].values())
            assert firings > 2 * OVERLAY_BUDGET
            assert pool.ask("(W7, EARNS, SALARY)")
            for step, control in enumerate((
                    lambda: service.exclude("mem-source"),
                    lambda: service.include("mem-source"),
                    lambda: service.limit(2)), start=1):
                control()
                assert service.stats()["folds"] == 0
                pool.wait_for_version(service.applied_seq,
                                      all_workers=True, timeout=60.0)
                stats = pool.stats()
                assert stats["compactions"] == step
                assert stats["generation_log"] == 0
                assert stats["retired_segments"] == 0
                replica = pool.database_stats()
                primary = service.database_stats()
                # The worker shows the primary's counts: it attached the
                # closure those firings produced, it did not add its own.
                assert replica["rule_firings"] == primary["rule_firings"]
                assert replica["enabled_rules"] == primary["enabled_rules"]
                assert replica["composition_limit"] \
                    == primary["composition_limit"]
                assert replica["closure_facts"] == primary["closure_facts"]
                with primary_busy(pool):
                    assert pool.ask("(W7, EARNS, SALARY)") is (step != 1)
            assert sum(pool.database_stats()["rule_firings"].values()) \
                <= firings
        finally:
            pool.close()
            service.close()

    def test_respawn_between_folds_attaches_the_current_generation(self):
        with use_telemetry(Telemetry()) as telemetry:
            service = DatabaseService(_database())
            pool = ReplicaPool(service, workers=1, read_timeout=60.0)
            try:
                ticket = None
                for i in range(OVERLAY_BUDGET + 10):
                    ticket = service.add_async((f"R{i}", "∈", "EMPLOYEE"))
                    ticket.result(timeout=30.0)
                _settle(pool, ticket)
                folds = service.stats()["folds"]
                assert folds >= 1
                before = pool.stats()
                assert 0 < before["generation_log"] <= OVERLAY_BUDGET
                shared = telemetry.counters["serve.pool.generation_builds"]
                assert shared == 1 + folds
                pool.crash_worker(0)
                _respawned(pool)
                pool.wait_for_version(ticket.version, all_workers=True,
                                      timeout=60.0)
                after = pool.stats()
                # Attached what the last fold shared, replayed the rest.
                assert after["generation_seq"] == before["generation_seq"]
                assert after["generation_log"] == before["generation_log"]
                assert telemetry.counters[
                    "serve.pool.generation_builds"] == shared
                assert service.stats()["folds"] == folds
                with primary_busy(pool):
                    assert pool.ask(f"(R{OVERLAY_BUDGET + 9}, EARNS, SALARY)",
                                    ticket=ticket)
                assert pool.stats()["fallback_reads"] == 0
                store = pool.database_stats()["store"]
                assert store["overlay_facts"] + store["tombstones"] \
                    <= 2 * OVERLAY_BUDGET
            finally:
                pool.close()
                service.close()

    def test_read_your_writes_across_a_fold(self, pooled):
        """A read carrying the ticket of the batch that folded is never
        answered by a worker still on the old generation."""
        service, pool = pooled
        burst = [(f"F{i}", "∈", "EMPLOYEE")
                 for i in range(OVERLAY_BUDGET + 1)]
        ticket = service.add_facts_async(burst)
        ticket.result(timeout=60.0)
        assert service.stats()["folds"] == 1
        with primary_busy(pool):
            # Served by a re-attached worker, or by the primary while
            # none has re-attached yet: correct either way.
            for _ in range(4):
                assert pool.ask(f"(F{OVERLAY_BUDGET}, EARNS, SALARY)",
                                ticket=ticket)
        _settle(pool, ticket)
        assert min(pool.stats()["applied_versions"]) >= ticket.version
        before = pool.stats()["fallback_reads"]
        with primary_busy(pool):
            for _ in range(2):
                assert pool.ask("(F0, EARNS, SALARY)", ticket=ticket)
        assert pool.stats()["fallback_reads"] == before

    def test_pool_over_a_snapshot_with_an_overlay_asks_for_a_fold(self):
        service = DatabaseService(_database())
        try:
            service.add("EARLY", "∈", "EMPLOYEE")
            assert service.stats()["store"]["overlay_facts"] > 0
            assert service.stats()["folds"] == 0
            with ReplicaPool(service, workers=1) as pool:
                assert service.stats()["folds"] == 1
                stats = pool.stats()
                assert stats["generation_seq"] == service.applied_seq
                assert stats["generation_log"] == 0
                with primary_busy(pool):
                    assert pool.ask("(EARLY, EARNS, SALARY)")
                assert replica_served(pool) == 1
                assert pool.database_stats()["store"]["overlay_facts"] == 0
        finally:
            service.close()

    def test_close_unlinks_all_segments(self):
        segments_before = _gen_segments()
        if segments_before is None:
            pytest.skip("no /dev/shm on this platform")
        service = DatabaseService(_database())
        pool = ReplicaPool(service, workers=2)
        try:
            with primary_busy(pool):
                assert pool.ask("(JOHN, ∈, EMPLOYEE)")
            during = _gen_segments()
            assert len(during) > len(segments_before)
        finally:
            pool.close()
            service.close()
        assert _gen_segments() == segments_before

    def test_spawn_start_method(self):
        import multiprocessing
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        service = DatabaseService(_database())
        pool = ReplicaPool(service, workers=1, start_method="spawn",
                           ready_timeout=120.0)
        try:
            with primary_busy(pool):
                assert pool.ask("(JOHN, ∈, EMPLOYEE)")
            assert pool.stats()["fallback_reads"] == 0
            assert replica_served(pool) == 1
        finally:
            pool.close()
            service.close()


def _worker_counter(pool, name: str) -> int:
    return sum((worker["metrics"] or {}).get("counters", {}).get(name, 0)
               for worker in pool.worker_metrics())


def _no_room(fd, buffers):
    """``os.writev`` on a full ``/dev/shm``."""
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestSharedMemoryCapacity:
    """A generation file that ``/dev/shm`` has no room for is refused
    by its write (``ENOSPC``) and leaves no partial file behind."""

    @pytest.fixture(autouse=True)
    def _needs_dev_shm(self):
        if _gen_segments() is None:
            pytest.skip("no /dev/shm on this platform")

    @staticmethod
    def _big_database() -> Database:
        db = _database()
        for i in range(400):       # base generation alone passes 4 KiB
            db.add(f"BIG{i}", "∈", "EMPLOYEE")
        return db

    def test_pool_construction_fails_before_any_worker(self, monkeypatch):
        service = DatabaseService(self._big_database())
        segments = _gen_segments()
        try:
            monkeypatch.setattr("repro.core.interned.os.writev", _no_room)
            started = []
            monkeypatch.setattr(ReplicaPool, "_spawn",
                                lambda self, index: started.append(index))
            with pytest.raises(ReplicaError) as refused:
                ReplicaPool(service, workers=2)
            text = str(refused.value)
            assert "No space left on device" in text \
                and "--workers 0" in text and "/dev/shm" in text
            needed = int(text.split(" needs ")[1].split()[0])
            assert needed > 4096
            assert started == []
            assert _gen_segments() == segments
            # The primary is untouched.
            assert service.ask("(BIG7, EARNS, SALARY)")
        finally:
            service.close()

    def test_refused_share_at_a_fold_is_counted_and_survived(
            self, monkeypatch):
        with use_telemetry(Telemetry()) as telemetry:
            service = DatabaseService(self._big_database())
            pool = ReplicaPool(service, workers=1, read_timeout=60.0)
            try:
                generation = pool.stats()["generation_seq"]
                segments = _gen_segments()
                monkeypatch.setattr("repro.core.interned.os.writev",
                                    _no_room)
                burst = [(f"S{i}", "∈", "EMPLOYEE")
                         for i in range(OVERLAY_BUDGET + 1)]
                ticket = service.add_facts_async(burst)
                _settle(pool, ticket)
                assert service.stats()["folds"] == 1
                assert _gen_segments() == segments
                stats = pool.stats()
                assert stats["share_failures"] == 1
                assert stats["compactions"] == 0
                assert telemetry.counters["serve.pool.share_failures"] == 1
                # Workers stay on the pair they had and took the batch
                # as a delta; both routes keep answering.
                assert stats["generation_seq"] == generation
                assert stats["generation_log"] == 1
                assert stats["alive"] == 1
                assert pool.ask("(S5, EARNS, SALARY)", ticket=ticket)
                with primary_busy(pool):
                    assert pool.ask("(S5, EARNS, SALARY)", ticket=ticket)
                assert pool.stats()["fallback_reads"] == 0
                # Room again: the next fold is shared.
                monkeypatch.undo()
                service.add("AFTER", "∈", "EMPLOYEE")
                service.fold()
                pool.wait_for_version(service.applied_seq,
                                      all_workers=True, timeout=60.0)
                stats = pool.stats()
                assert stats["compactions"] == 1
                assert stats["generation_log"] == 0
                assert stats["retired_segments"] == 0
            finally:
                pool.close()
                service.close()

    def test_refused_share_of_a_recompute_leaves_workers_unrouted(
            self, monkeypatch):
        """A recompute (here ``limit(2)``) whose generation files
        ``/dev/shm`` cannot take: the worker is sent nothing and asked
        nothing until the next fold re-attaches it.  The refused
        write leaves no file behind."""
        service = DatabaseService(self._big_database())
        pool = ReplicaPool(service, workers=1, read_timeout=60.0)
        queries = ["(BIG7, r, y)", "(x, EARNS, SALARY)"]
        try:
            _settle(pool, service.add_async(("EARLY", "∈", "EMPLOYEE")))
            applied = pool.stats()["applied_versions"]
            sent = []
            send = _Worker.send
            monkeypatch.setattr(_Worker, "send", lambda worker, message: (
                sent.append(message[0]), send(worker, message))[1])
            segments = _gen_segments()
            monkeypatch.setattr("repro.core.interned.os.writev", _no_room)
            service.limit(2)
            ticket = service.add_async(("LATE", "∈", "EMPLOYEE"))
            ticket.result(timeout=30.0)
            assert _gen_segments() == segments
            stats = pool.stats()
            assert stats["share_failures"] == 1 and stats["behind"]
            assert stats["compactions"] == 0
            before = stats["fallback_reads"]
            assert pool.ask("(LATE, EARNS, SALARY)", ticket=ticket)
            with primary_busy(pool):
                assert pool.ask("(LATE, EARNS, SALARY)", ticket=ticket)
                for text in queries:
                    assert pool.query(text) == service.query(text)
                assert pool.database_stats()["composition_limit"] == 2
            assert pool.stats()["fallback_reads"] == before + 4
            assert sent == []
            assert pool.stats()["applied_versions"] == applied
            # Room again: the next fold re-attaches the worker.
            monkeypatch.undo()
            service.fold()
            pool.wait_for_version(service.applied_seq, all_workers=True,
                                  timeout=60.0)
            stats = pool.stats()
            assert not stats["behind"] and stats["compactions"] == 1
            assert stats["applied_versions"] == [service.applied_seq]
            primary = service.database_stats()
            with primary_busy(pool):
                for text in queries:
                    assert pool.query(text) == service.query(text)
                replica = pool.database_stats()
            for field in ("closure_facts", "derived_facts", "rule_firings",
                          "composition_limit"):
                assert replica[field] == primary[field], field
            assert pool.stats()["fallback_reads"] == before + 4
        finally:
            pool.close()
            service.close()
