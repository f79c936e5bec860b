"""Serving-layer tests: snapshot isolation under concurrency, write
coalescing, deadlines, backpressure, durability, and lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import deadline as deadline_mod
from repro.core.errors import (
    DeadlineExceeded,
    FrozenStoreError,
    IntegrityError,
    Overloaded,
    ServiceClosed,
    ServiceError,
    StorageError,
)
from repro.core.facts import Fact
from repro.db import Database
from repro.serve import DatabaseService
from repro.storage.session import DurableSession


# ----------------------------------------------------------------------
# Database.snapshot() — the substrate the service publishes
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_snapshot_is_point_in_time(self):
        db = Database()
        db.add("A", "R", "B")
        snap = db.snapshot()
        db.add("C", "R", "D")
        assert Fact("C", "R", "D") in db
        assert Fact("C", "R", "D") not in snap
        assert Fact("A", "R", "B") in snap

    def test_snapshot_is_frozen(self):
        db = Database()
        db.add("A", "R", "B")
        snap = db.snapshot()
        with pytest.raises(FrozenStoreError):
            snap.add("X", "R", "Y")
        with pytest.raises(FrozenStoreError):
            snap.remove_fact(Fact("A", "R", "B"))

    def test_snapshot_queries_match_master(self):
        db = Database()
        db.add("JOHN", "∈", "EMPLOYEE")
        db.add("EMPLOYEE", "EARNS", "SALARY")
        snap = db.snapshot()
        assert snap.query("(JOHN, EARNS, y)") == db.query("(JOHN, EARNS, y)")
        assert snap.ask("(JOHN, ∈, EMPLOYEE)")

    def test_snapshot_closure_unaffected_by_master_extension(self):
        db = Database()
        db.add("JOHN", "∈", "EMPLOYEE")
        db.add("EMPLOYEE", "EARNS", "SALARY")
        db.view()                      # materialize the master's closure
        snap = db.snapshot()
        before = set(snap.query("(x, EARNS, SALARY)"))
        db.add("MARY", "∈", "EMPLOYEE")   # extends the master in place
        assert set(snap.query("(x, EARNS, SALARY)")) == before
        assert ("MARY",) in db.query("(x, EARNS, SALARY)")

    def test_snapshot_rules_track_master_state(self):
        db = Database()
        first_rule = db.rules.all_rules()[0]
        db.exclude(first_rule)
        snap = db.snapshot()
        assert snap.rules.enabled_names() == db.rules.enabled_names()
        assert first_rule.name not in snap.rules.enabled_names()


# ----------------------------------------------------------------------
# Basic service behavior
# ----------------------------------------------------------------------
class TestServiceBasics:
    def test_read_your_writes(self):
        with DatabaseService(Database()) as service:
            assert service.add("JOHN", "∈", "EMPLOYEE") is True
            assert service.ask("(JOHN, ∈, EMPLOYEE)")

    def test_duplicate_add_returns_false(self):
        with DatabaseService(Database()) as service:
            assert service.add("A", "R", "B") is True
            assert service.add("A", "R", "B") is False

    def test_remove(self):
        with DatabaseService(Database()) as service:
            service.add("A", "R", "B")
            assert service.remove("A", "R", "B") is True
            assert not service.ask("(A, R, B)")

    def test_derived_facts_served(self):
        with DatabaseService(Database()) as service:
            service.add("JOHN", "∈", "EMPLOYEE")
            service.add("EMPLOYEE", "EARNS", "SALARY")
            assert service.query("(JOHN, EARNS, y)") == {("SALARY",)}

    def test_define_rule_and_limit(self):
        with DatabaseService(Database()) as service:
            rule = service.define_rule(
                "sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
            assert rule.name == "sym"
            service.add("ANN", "MARRIED-TO", "BOB")
            assert service.ask("(BOB, MARRIED-TO, ANN)")
            assert service.limit(2) == 2

    def test_writer_error_propagates_to_ticket(self):
        with DatabaseService(Database()) as service:
            with pytest.raises((IntegrityError, ValueError, Exception)):
                service.limit(0)       # invalid: limit must be >= 1

    def test_integrity_violation_surfaces(self):
        db = Database(auto_check=True)
        with DatabaseService(db) as service:
            service.add("LOVES", "⊥", "HATES")
            service.add("JOHN", "LOVES", "MARY")
            # auto_check rejects the mutation on the writer thread; the
            # IntegrityError travels back through the ticket.
            with pytest.raises(IntegrityError):
                service.add("JOHN", "HATES", "MARY")
            assert not service.ask("(JOHN, HATES, MARY)")

    def test_read_view_is_stable(self):
        with DatabaseService(Database()) as service:
            service.add("A", "R", "B")
            view = service.read_view()
            count = len(view.facts)
            service.add("C", "R", "D")
            assert len(view.facts) == count
            assert len(service.read_view().facts) == count + 1

    def test_stats_shape(self):
        with DatabaseService(Database()) as service:
            service.add("A", "R", "B")
            stats = service.stats()
            assert stats["batches"] >= 1
            assert stats["ops_applied"] >= 1
            assert stats["snapshot_publishes"] >= 2
            assert stats["pending_writes"] == 0
            assert stats["durable"] is False
            assert service.ping()["facts"] == stats["base_facts"]

    def test_add_facts_bulk(self):
        with DatabaseService(Database()) as service:
            added = service.add_facts(
                [("E%d" % i, "R", "F") for i in range(20)])
            assert added == 20
            assert len(service.query("(x, R, F)")) == 20


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_closed_service_rejects_reads_and_writes(self):
        service = DatabaseService(Database())
        service.close()
        with pytest.raises(ServiceClosed):
            service.ask("(A, R, B)")
        with pytest.raises(ServiceClosed):
            service.add("A", "R", "B")
        with pytest.raises(ServiceClosed):
            service.read_view()

    def test_close_drains_queued_writes(self):
        service = DatabaseService(Database(), batch_window=0)
        tickets = [service.add_async(("E%d" % i, "R", "F"))
                   for i in range(50)]
        service.close()
        assert all(t.done() for t in tickets)

    def test_close_without_started_writer_rejects_pending(self):
        service = DatabaseService(Database(), start=False)
        ticket = service.add_async(("A", "R", "B"))
        service.close(timeout=0.1)
        with pytest.raises(ServiceClosed):
            ticket.result(1.0)

    def test_close_is_idempotent(self):
        service = DatabaseService(Database())
        service.close()
        service.close()

    def test_checkpoint_without_session_raises(self):
        with DatabaseService(Database()) as service:
            with pytest.raises(ServiceError):
                service.checkpoint()


# ----------------------------------------------------------------------
# Deadlines and backpressure
# ----------------------------------------------------------------------
class TestDeadlinesAndBackpressure:
    def test_expired_deadline_cancels_read(self):
        db = Database()
        for i in range(40):
            db.add(f"E{i}", "∈", "CLASS")
            db.add("CLASS", f"R{i}", f"V{i}")
        with DatabaseService(db) as service:
            # Non-positive budget: already expired at the first
            # cooperative checkpoint.  Fresh query text bypasses the
            # result cache so evaluation actually runs.
            with pytest.raises(DeadlineExceeded):
                service.query("(x, R7, y)", deadline=-1.0)

    def test_generous_deadline_passes(self):
        with DatabaseService(Database()) as service:
            service.add("A", "R", "B")
            assert service.ask("(A, R, B)", deadline=30.0)

    def test_default_deadline_applies(self):
        db = Database()
        for i in range(40):
            db.add(f"E{i}", "∈", "CLASS")
            db.add("CLASS", f"R{i}", f"V{i}")
        with DatabaseService(db, default_deadline=-1.0) as service:
            with pytest.raises(DeadlineExceeded):
                service.query("(x, R9, y)")
            # A per-call deadline overrides the default.
            assert service.query("(x, R9, y)", deadline=30.0)

    def test_deadline_scope_restores_state(self):
        assert deadline_mod.remaining() is None
        with pytest.raises(DeadlineExceeded):
            with deadline_mod.deadline_scope(-1.0):
                deadline_mod.check()
        assert deadline_mod.remaining() is None
        assert deadline_mod.ACTIVE == 0

    def test_nested_deadline_scopes_tighten(self):
        with deadline_mod.deadline_scope(60.0):
            with deadline_mod.deadline_scope(0.001):
                time.sleep(0.01)
                assert deadline_mod.expired()
            assert not deadline_mod.expired()

    def test_overloaded_when_queue_full(self):
        service = DatabaseService(Database(), max_pending=4, start=False)
        try:
            for i in range(4):
                service.add_async(("E%d" % i, "R", "F"))
            with pytest.raises(Overloaded):
                service.add_async(("E99", "R", "F"))
        finally:
            service.close(timeout=0.1)

    def test_ticket_timeout_raises_deadline_exceeded(self):
        service = DatabaseService(Database(), start=False)
        try:
            with pytest.raises(DeadlineExceeded):
                service.add("A", "R", "B", deadline=0.05)
        finally:
            service.close(timeout=0.1)


# ----------------------------------------------------------------------
# Write coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_queued_writes_coalesce_into_batches(self):
        service = DatabaseService(Database(), start=False,
                                  batch_window=0)
        tickets = [service.add_async(("E%d" % i, "R", "F"))
                   for i in range(32)]
        service.start()
        for ticket in tickets:
            assert ticket.result(10.0) is True
        stats = service.stats()
        assert stats["largest_batch"] >= 32   # one drain took them all
        assert stats["batches"] < 32
        service.close()

    def test_batch_publishes_once(self):
        service = DatabaseService(Database(), start=False)
        before = service.stats()["snapshot_publishes"]
        tickets = [service.add_async(("E%d" % i, "R", "F"))
                   for i in range(16)]
        service.start()
        for ticket in tickets:
            ticket.result(10.0)
        # All 16 writes landed in one batch -> exactly one new publish.
        assert service.stats()["snapshot_publishes"] == before + 1
        service.close()

    def test_blocking_write_is_never_held_back(self):
        """A blocked submitter cannot send more, so the writer takes
        its write at once, however long the window."""
        service = DatabaseService(Database(), batch_window=5.0)
        try:
            started = time.perf_counter()
            assert service.add("A", "R", "B", deadline=30.0)
            assert service.add_facts([("C", "R", "D")], deadline=30.0) == 1
            assert service.remove("A", "R", "B", deadline=30.0)
            assert time.perf_counter() - started < 2.5
            stats = service.stats()
            assert stats["batch_waits"] == 0
            assert stats["batches"] == 3
        finally:
            service.close()

    def test_pipelined_writes_get_one_window(self):
        """An ``*_async`` submitter can send its next write before
        this one is acknowledged, so the writer waits one window for
        it: the burst is one batch and one publish."""
        service = DatabaseService(Database(), batch_window=0.25)
        try:
            before = service.stats()["snapshot_publishes"]
            tickets = []
            for i in range(5):
                tickets.append(service.add_async((f"E{i}", "R", "F")))
                time.sleep(0.005)
            for ticket in tickets:
                assert ticket.result(30.0) is True
            stats = service.stats()
            assert stats["batch_waits"] == 1
            assert stats["batches"] == 1
            assert stats["snapshot_publishes"] == before + 1
        finally:
            service.close()

    def test_max_batch_caps_a_drain(self):
        """A deep backlog drains in ``max_batch``-sized stages, so no
        single publish pause covers the whole queue."""
        service = DatabaseService(Database(), start=False,
                                  batch_window=0, max_batch=8)
        tickets = [service.add_async(("E%d" % i, "R", "F"))
                   for i in range(32)]
        service.start()
        for ticket in tickets:
            assert ticket.result(10.0) is True
        stats = service.stats()
        assert stats["max_batch"] == 8
        assert stats["largest_batch"] <= 8
        assert stats["batches"] >= 4
        service.close()

    def test_max_batch_none_is_unbounded(self):
        service = DatabaseService(Database(), start=False,
                                  batch_window=0, max_batch=None)
        tickets = [service.add_async(("E%d" % i, "R", "F"))
                   for i in range(32)]
        service.start()
        for ticket in tickets:
            ticket.result(10.0)
        stats = service.stats()
        assert stats["max_batch"] is None
        assert stats["largest_batch"] >= 32
        service.close()

    def test_max_batch_validation(self):
        with pytest.raises(ValueError):
            DatabaseService(Database(), start=False, max_batch=0)

    def test_publish_pause_stats(self):
        service = DatabaseService(Database())
        service.add("A", "R", "B")
        stats = service.stats()
        assert stats["publish_pause_last_s"] >= 0.0
        assert stats["publish_pause_max_s"] >= \
            stats["publish_pause_last_s"]
        assert stats["publish_pause_total_s"] >= \
            stats["publish_pause_max_s"]
        assert stats["applied_seq"] >= 1
        service.close()


# ----------------------------------------------------------------------
# The headline stress test: concurrent readers vs interleaved writer
# ----------------------------------------------------------------------
class TestConcurrentStress:
    READERS = 8
    ITEMS = 30

    def test_readers_see_consistent_snapshots(self):
        """8 reader threads race a writer that maintains two invariants:

        * ``item_i ∈ LEFT`` and ``item_i ∈ RIGHT`` are queued as one
          atomic group (:meth:`add_facts_async`), so any published
          snapshot has equal LEFT / RIGHT membership counts (a torn
          batch would break equality);
        * ``LEFT ≺ PARENT`` holds from the start, so each item also
          *derives* ``item_i ∈ PARENT`` — a derived count lagging the
          base count would expose a torn closure.
        """
        db = Database()
        db.add("LEFT", "≺", "PARENT")
        db.add("RIGHT", "≺", "PARENT")
        service = DatabaseService(db, batch_window=0.0005)
        errors = []
        inconsistencies = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    snap = service.read_view()
                    left = snap.query("(x, ∈, LEFT)")
                    right = snap.query("(x, ∈, RIGHT)")
                    parent = snap.query("(x, ∈, PARENT)")
                    if len(left) != len(right):
                        inconsistencies.append(
                            ("torn batch", len(left), len(right)))
                    if not (left | right) <= parent:
                        inconsistencies.append(
                            ("torn closure", len(left | right),
                             len(parent)))
            except Exception as error:   # noqa: BLE001 - recorded
                errors.append(error)

        threads = [threading.Thread(target=reader)
                   for _ in range(self.READERS)]
        for thread in threads:
            thread.start()
        try:
            for i in range(self.ITEMS):
                ticket = service.add_facts_async(
                    [(f"item{i}", "∈", "LEFT"),
                     (f"item{i}", "∈", "RIGHT")])
                assert ticket.result(30.0) == 2
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            service.close()
        assert not errors, errors[:3]
        assert not inconsistencies, inconsistencies[:3]
        final = service.published_state()[0]
        assert len(final.query("(x, ∈, PARENT)")) == self.ITEMS

    def test_concurrent_writers_all_land(self):
        service = DatabaseService(Database(), batch_window=0.0005)
        errors = []

        def writer(index):
            try:
                for j in range(10):
                    service.add(f"W{index}-{j}", "∈", "DONE",
                                deadline=30.0)
            except Exception as error:   # noqa: BLE001 - recorded
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        try:
            assert not errors, errors[:3]
            assert len(service.query("(x, ∈, DONE)")) == 60
        finally:
            service.close()


# ----------------------------------------------------------------------
# Durability
# ----------------------------------------------------------------------
class TestDurability:
    def test_batches_journal_and_recover(self, tmp_path):
        session = DurableSession(tmp_path / "db")
        db = session.recover()
        service = DatabaseService(db, session=session)
        service.add("JOHN", "∈", "EMPLOYEE")
        service.add("EMPLOYEE", "EARNS", "SALARY")
        service.remove("JOHN", "∈", "EMPLOYEE")
        service.add("MARY", "∈", "EMPLOYEE")
        service.close()

        recovered = DurableSession(tmp_path / "db").recover()
        assert Fact("MARY", "∈", "EMPLOYEE") in recovered
        assert Fact("JOHN", "∈", "EMPLOYEE") not in recovered
        assert recovered.query("(MARY, EARNS, y)") == {("SALARY",)}

    def test_checkpoint_folds_journal(self, tmp_path):
        directory = tmp_path / "db"
        session = DurableSession(directory)
        service = DatabaseService(session.recover(), session=session)
        service.add("A", "R", "B")
        assert service.checkpoint(deadline=30.0) is True
        assert service.stats()["checkpoints"] == 1
        assert not (directory / "journal.jsonl").exists()
        assert (directory / "snapshot.json").exists()
        # Post-checkpoint writes journal again and survive recovery.
        service.add("C", "R", "D")
        service.close()
        recovered = DurableSession(directory).recover()
        assert Fact("A", "R", "B") in recovered
        assert Fact("C", "R", "D") in recovered

    def test_reads_keep_serving_during_checkpoint(self, tmp_path):
        session = DurableSession(tmp_path / "db")
        service = DatabaseService(session.recover(), session=session)
        service.add("A", "R", "B")
        ticket = service._submit("checkpoint", None)
        # Reads never block on the checkpointing writer.
        assert service.ask("(A, R, B)")
        assert ticket.result(30.0) is True
        service.close()

    def test_failed_checkpoint_fails_only_the_checkpoint(self, tmp_path):
        """A checkpoint that cannot write its snapshot rejects its own
        ticket — the batch's writes are journaled and published, and
        their callers are told so."""
        directory = tmp_path / "db"

        class FullDisk(DurableSession):
            def checkpoint(self, database=None):
                raise OSError(28, "No space left on device")

        session = FullDisk(directory)
        service = DatabaseService(session.recover(), session=session,
                                  start=False)
        add = service.add_async(("A", "R", "B"))
        checkpoint = service._submit("checkpoint", None)
        service.start()
        assert add.result(30.0) is True                 # not "writer failed"
        with pytest.raises(StorageError) as raised:
            checkpoint.result(30.0)
        assert str(directory / "snapshot.json") in str(raised.value)
        assert isinstance(raised.value.__cause__, OSError)
        assert service.ask("(A, R, B)")
        stats = service.stats()
        assert stats["batches"] == 1                    # one batch held both
        assert stats["checkpoint_failures"] == 1
        # The writer keeps serving, and a later checkpoint may succeed.
        assert service.add("C", "R", "D")
        session.checkpoint = lambda database=None: \
            DurableSession.checkpoint(session, database=database)
        assert service.checkpoint(deadline=30.0) is True
        assert service.stats()["checkpoint_failures"] == 1
        service.add("E", "R", "F")
        service.close()
        recovered = DurableSession(directory).recover()
        for name in ("A", "C", "E"):
            assert Fact(name, "R", chr(ord(name) + 1)) in recovered

    def test_duplicate_adds_not_journaled(self, tmp_path):
        session = DurableSession(tmp_path / "db")
        service = DatabaseService(session.recover(), session=session)
        service.add("A", "R", "B")
        service.add("A", "R", "B")     # no-op: must not journal
        service.close()
        journal_lines = [
            line
            for line in (tmp_path / "db" / "journal.jsonl")
            .read_text(encoding="utf-8").splitlines() if line.strip()
        ]
        assert len(journal_lines) == 1
