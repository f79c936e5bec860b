"""ReplicaPool tests: primary-first routing, replica reads,
read-your-writes on both routes, primary fallback, crash/respawn
failover, and directory bootstrap.

A lone sequential read is served by the primary; tests about the worker
route issue their reads inside ``primary_busy(pool)``.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

import pytest

from repro.core.errors import DeadlineExceeded, ParseError, ServiceClosed
from repro.db import Database
from repro.serve import DatabaseService, ReplicaPool

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
        real_ask = service.ask

        def parked_ask(*args, **kwargs):
            entered.set()
            assert release.wait(30.0)
            return real_ask(*args, **kwargs)

        monkeypatch.setattr(service, "ask", parked_ask)
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

    def test_no_respawn_when_disabled(self):
        service = DatabaseService(_database())
        pool = ReplicaPool(service, workers=1, respawn=False)
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


class TestDirectoryBootstrap:
    def test_worker_bootstraps_from_durable_directory(self, tmp_path):
        from repro.storage.session import open_database

        directory = tmp_path / "state"
        db, session = open_database(directory)
        db.add("DISK", "∈", "EMPLOYEE")   # journaled via the session
        service = DatabaseService(db, session=session)
        pool = ReplicaPool(service, workers=1,
                           bootstrap_directory=str(directory))
        try:
            with primary_busy(pool):
                assert pool.ask("(DISK, ∈, EMPLOYEE)")
            # Deltas still flow after a disk bootstrap.
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


class TestGenerationBootstrap:
    """Shared-memory generation attach: the default bootstrap mode."""

    def test_default_mode_and_stats(self, pooled):
        _, pool = pooled
        assert pool.bootstrap == "generation"
        stats = pool.stats()
        assert stats["bootstrap"] == "generation"
        assert stats["generation_seq"] is not None
        assert stats["generation_stale"] is False

    def test_attach_matches_copied_state(self):
        """Satellite: attach-vs-copy consistency across a 2-worker
        pool — generation-attached replicas answer exactly like
        replicas that copied the pickled heap."""
        service = DatabaseService(_database())
        shapes = ["(x, ∈, EMPLOYEE)", "(JOHN, r, y)", "(x, r, SALARY)",
                  "(x, ≺, y)"]
        try:
            with ReplicaPool(service, workers=2,
                             bootstrap="generation") as gen_pool, \
                 ReplicaPool(service, workers=2,
                             bootstrap="state") as copy_pool, \
                 primary_busy(gen_pool), primary_busy(copy_pool):
                for shape in shapes:
                    assert gen_pool.query(shape) == copy_pool.query(shape)
                assert (sorted(map(tuple, gen_pool.match("(JOHN, *, *)")))
                        == sorted(map(tuple,
                                      copy_pool.match("(JOHN, *, *)"))))
                assert (gen_pool.navigate("(JOHN, *, *)")
                        == copy_pool.navigate("(JOHN, *, *)"))
                assert gen_pool.stats()["fallback_reads"] == 0
                assert replica_served(gen_pool) == len(shapes) + 2
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
        deadline_at = time.monotonic() + 60.0
        while time.monotonic() < deadline_at:
            stats = pool.stats()
            if stats["alive"] == stats["workers"] and stats["respawns"]:
                break
            time.sleep(0.05)
        pool.wait_for_version(ticket.version, all_workers=True,
                              timeout=30.0)
        before = pool.stats()["fallback_reads"]
        with primary_busy(pool):
            for _ in range(2):      # rotation: once per worker
                assert pool.ask("(SUFFIX, EARNS, SALARY)", ticket=ticket)
        assert pool.stats()["fallback_reads"] == before

    def test_log_overflow_marks_stale_and_rebuilds(self, monkeypatch):
        import repro.serve.pool as pool_mod
        monkeypatch.setattr(pool_mod, "GENERATION_LOG_CAP", 2)
        service = DatabaseService(_database())
        pool = ReplicaPool(service, workers=1)
        try:
            ticket = None
            for i in range(4):
                # Settle each write so the batch window cannot coalesce
                # them into a single delta.
                ticket = service.add_async((f"BULK{i}", "∈", "EMPLOYEE"))
                ticket.result(timeout=30.0)
            assert pool.stats()["generation_stale"] is True
            # A respawn rebuilds the generation pair from the current
            # snapshot; the stale flag clears and reads stay exact.
            pool.crash_worker(0)
            deadline_at = time.monotonic() + 60.0
            while time.monotonic() < deadline_at:
                stats = pool.stats()
                if stats["alive"] == stats["workers"] and stats["respawns"]:
                    break
                time.sleep(0.05)
            assert pool.stats()["generation_stale"] is False
            with primary_busy(pool):
                assert pool.ask("(BULK3, ∈, EMPLOYEE)", ticket=ticket)
        finally:
            pool.close()
            service.close()

    def test_compact_generation_reattaches_live_workers(self, pooled):
        service, pool = pooled
        ticket = service.add_async(("COMPACT", "∈", "EMPLOYEE"))
        ticket.result(timeout=30.0)
        pool.wait_for_version(ticket.version, all_workers=True,
                              timeout=30.0)
        old_seq = pool.stats()["generation_seq"]
        new_seq = pool.compact_generation(timeout=60.0)
        assert new_seq >= old_seq
        stats = pool.stats()
        assert stats["generation_seq"] == new_seq
        assert stats["generation_log"] == 0
        # Old segments were unlinked once every worker re-attached.
        assert stats["retired_segments"] == 0
        assert stats["alive"] == stats["workers"]
        before = stats["fallback_reads"]
        with primary_busy(pool):
            for _ in range(2):      # rotation: once per worker
                assert pool.ask("(COMPACT, EARNS, SALARY)", ticket=ticket)
        assert pool.stats()["fallback_reads"] == before

    def test_auto_compaction_folds_log_without_failed_reads(self):
        service = DatabaseService(_database())
        pool = ReplicaPool(service, workers=2, read_timeout=60.0,
                           compact_after=3)
        try:
            ticket = None
            for i in range(5):
                # Settle each write so the batch window cannot coalesce
                # them into a single delta.
                ticket = service.add_async((f"AUTO{i}", "∈", "EMPLOYEE"))
                ticket.result(timeout=30.0)
            deadline_at = time.monotonic() + 60.0
            while time.monotonic() < deadline_at:
                stats = pool.stats()
                if stats["compactions"] >= 1 \
                        and stats["generation_log"] < 3:
                    break
                time.sleep(0.05)
            stats = pool.stats()
            assert stats["compact_after"] == 3
            assert stats["compactions"] >= 1
            # The fold reset the replay buffer below the threshold and
            # left every worker attached to the new generation.
            assert stats["generation_log"] < 3
            assert stats["generation_stale"] is False
            assert stats["alive"] == stats["workers"]
            # Deltas shipped while the fold was in flight finish
            # replaying (the re-attach must not strand them), then
            # reads across the fold stay exact and replica-served.
            pool.wait_for_version(ticket.version, all_workers=True,
                                  timeout=30.0)
            before = pool.stats()["fallback_reads"]
            with primary_busy(pool):
                for i in range(5):
                    assert pool.ask(f"(AUTO{i}, ∈, EMPLOYEE)",
                                    ticket=ticket)
            assert pool.stats()["fallback_reads"] == before
        finally:
            pool.close()
            service.close()

    def test_compact_requires_generation_mode(self):
        service = DatabaseService(_database())
        try:
            with ReplicaPool(service, workers=1,
                             bootstrap="state") as pool:
                with pytest.raises(ValueError):
                    pool.compact_generation()
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
            pool.shutdown()
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
            assert pool.bootstrap == "generation"
            with primary_busy(pool):
                assert pool.ask("(JOHN, ∈, EMPLOYEE)")
            assert pool.stats()["fallback_reads"] == 0
            assert replica_served(pool) == 1
        finally:
            pool.close()
            service.close()

    def test_invalid_bootstrap_mode(self):
        service = DatabaseService(_database())
        try:
            with pytest.raises(ValueError):
                ReplicaPool(service, workers=1, bootstrap="bogus")
            with pytest.raises(ValueError):
                ReplicaPool(service, workers=1, bootstrap="directory")
        finally:
            service.close()
