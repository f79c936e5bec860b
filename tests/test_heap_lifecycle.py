"""The heap's lifecycle under CPython's cyclic collector.

O(heap) builds — journal recovery, the closure, a compaction or fold —
run with the collector paused and promote what they leave to the oldest
generation (:func:`repro.core.heap.heap_build`).  These tests pin what
that may and may not do to the process: nested and concurrent builds
restore the collector's state, a caller's ``gc.disable()`` /
``gc.freeze()`` survives, a served set-up leaves nothing frozen, and
nothing a fold or a publish retires waits for the collector — a
published snapshot is not a cycle, so it is freed by refcount.  A
recovered heap is built once: after ``open_database`` + ``view()`` +
``checkpoint()`` no hash store bigger than an overlay is alive and no
``Fact`` is pinned per generation row.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro.core.entities import ISA, MEMBER
from repro.core.facts import Fact
from repro.core.heap import heap_build
from repro.core.interned import (
    OVERLAY_BUDGET,
    ColumnarGeneration,
    InternedFactStore,
)
from repro.db import Database
from repro.serve import DatabaseService
from repro.serve.net import ServiceClient, ServiceServer
from repro.storage.session import open_database

THREADS = 8         # more than the cores a CI runner has
READERS = 4
JOIN_TIMEOUT = 60.0


def world_facts(employees: int = 40) -> list:
    facts = [Fact("EMPLOYEE", ISA, "PERSON"),
             Fact("DEPT0", MEMBER, "DEPARTMENT")]
    for i in range(employees):
        facts.append(Fact(f"EMP{i}", MEMBER, "EMPLOYEE"))
        facts.append(Fact(f"EMP{i}", "WORKS-FOR", "DEPT0"))
    return facts


@contextmanager
def collector_disabled():
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


@contextmanager
def short_switch_interval():
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)


def run_threads(target, count: int = THREADS) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)


# ----------------------------------------------------------------------
# The helper
# ----------------------------------------------------------------------
class TestNestingAndThreads:
    def test_nested_builds_pause_until_the_outermost_exit(self):
        was = gc.isenabled()
        with heap_build():
            assert not gc.isenabled()
            with heap_build():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() == was

    def test_a_build_that_raises_still_restores(self):
        was = gc.isenabled()
        with pytest.raises(RuntimeError):
            with heap_build():
                raise RuntimeError("mid-build")
        assert gc.isenabled() == was
        assert gc.get_freeze_count() == 0

    def test_concurrent_builds_pause_while_any_runs(self):
        was = gc.isenabled()
        seen_enabled = []

        def builds():
            for _ in range(20):
                with heap_build():
                    seen_enabled.append(gc.isenabled())
                    with heap_build():
                        seen_enabled.append(gc.isenabled())
                    Database(world_facts(10)).closure()
                    seen_enabled.append(gc.isenabled())

        with short_switch_interval():
            run_threads(builds)
        assert len(seen_enabled) == THREADS * 20 * 3
        assert not any(seen_enabled)
        assert gc.isenabled() == was
        assert gc.get_freeze_count() == 0

    def test_closures_on_many_threads_leave_the_collector_as_found(self):
        was = gc.isenabled()
        closures = []

        def builds():
            for _ in range(5):
                closures.append(len(Database(world_facts()).closure().store))

        with short_switch_interval():
            run_threads(builds)
        assert len(closures) == THREADS * 5
        assert len(set(closures)) == 1
        assert gc.isenabled() == was
        assert gc.get_freeze_count() == 0


class TestWhatABuildLeaves:
    def test_what_a_build_leaves_is_in_the_oldest_generation(self):
        with heap_build():
            left = [[n] for n in range(1000)]
        oldest = {id(o) for o in gc.get_objects(generation=2)}
        assert id(left) in oldest
        assert all(id(cell) in oldest for cell in left)
        assert gc.get_freeze_count() == 0

    def test_a_cycle_a_build_leaves_is_still_collected(self):
        """Promoted, not frozen: the next full pass frees it."""
        class Node:
            pass

        with collector_disabled():
            with heap_build():
                node = Node()
                node.self = node
                alive = weakref.ref(node)
                del node
            assert alive() is not None      # a cycle: refcount cannot
            gc.collect()
            assert alive() is None


    def test_a_limit_2_write_composes_nothing(self, monkeypatch):
        """Under ``limit(2)`` a write and the next ``view()`` build no
        composition: the view walks the standard closure when a read
        asks, and the materialising oracle is never called."""
        import repro.rules.composition

        called = []
        monkeypatch.setattr(repro.rules.composition, "compose_closure",
                            lambda *args: called.append(args))
        db = Database(world_facts())
        db.add("DEPT0", "LOCATED-IN", "BOSTON")
        db.limit(2)
        db.view()
        db.add("EMP0", "LIVES-IN", "BOSTON")
        db.remove_fact(Fact("EMP0", "LIVES-IN", "BOSTON"))
        view = db.view()
        assert Fact("EMP1", "WORKS-FOR.DEPT0.LOCATED-IN", "BOSTON") in view
        assert called == []


# ----------------------------------------------------------------------
# The caller's collector state
# ----------------------------------------------------------------------
class TestCallerState:
    def test_a_callers_disable_survives_a_closure(self):
        db = Database(world_facts())
        with collector_disabled():
            db.closure()
            db.compact_store()
            assert not gc.isenabled()

    def test_a_disable_made_during_a_build_is_undone_at_its_end(self):
        """The outermost exit restores what the build found: a caller
        on another thread that disables mid-build loses its disable."""
        was = gc.isenabled()
        gc.enable()
        try:
            in_build, disabled = threading.Event(), threading.Event()

            def build():
                with heap_build():
                    in_build.set()
                    assert disabled.wait(JOIN_TIMEOUT)

            builder = threading.Thread(target=build, daemon=True)
            builder.start()
            assert in_build.wait(JOIN_TIMEOUT)
            gc.disable()
            disabled.set()
            builder.join(JOIN_TIMEOUT)
            assert not builder.is_alive()
            assert gc.isenabled()
        finally:
            if not was:
                gc.disable()

    def test_a_callers_freeze_survives_a_closure(self):
        db = Database(world_facts())
        # The closure re-founds the base heap on its generation; held
        # here, the store it replaces is not freed out of the frozen
        # set, so the count moves only if the build itself freezes or
        # unfreezes something.
        base = db.facts
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            db.closure()
            assert gc.get_freeze_count() == frozen
            assert db.facts is not base
        finally:
            gc.unfreeze()

    def test_a_served_setup_leaves_nothing_frozen(self, tmp_path):
        directory = tmp_path / "db"
        db, session = open_database(directory)
        db.add_facts(world_facts())
        session.checkpoint()
        session.close()

        was = gc.isenabled()
        db, session = open_database(directory)
        service = DatabaseService(db, session=session)
        try:
            assert gc.get_freeze_count() == 0
            assert gc.isenabled() == was
            assert service.ask("(EMP3, ∈, PERSON)")
        finally:
            service.close()


# ----------------------------------------------------------------------
# What a publish or a fold retires
# ----------------------------------------------------------------------
def generations(snapshot) -> list:
    return [snapshot.facts.generation, snapshot.closure().store.generation]


class TestRetiredByRefcount:
    def test_a_retired_snapshot_is_freed_at_the_next_publish(self):
        service = DatabaseService(Database(world_facts()))
        try:
            with collector_disabled():
                previous = weakref.ref(service.read_view())
                service.add("EMP0", "KNOWS", "EMP1")
                assert previous() is None
        finally:
            service.close()

    def test_the_answer_memo_holds_no_retired_snapshot(self):
        """Over TCP the memo has filed answers of the snapshot a write
        retires: the write's own publish still frees it, so no reader
        pays for it."""
        service = DatabaseService(Database(world_facts()))
        server = ServiceServer(service, port=0)
        server.start()
        try:
            with ServiceClient(*server.address) as client:
                with collector_disabled():
                    previous = weakref.ref(service.read_view())
                    client.query("(x, WORKS-FOR, DEPT0)")
                    assert server.answer_stats()["entries"] == 1
                    client.add("EMP0", "KNOWS", "EMP1")
                    assert previous() is None
        finally:
            server.close()
            service.close()

    def test_a_pre_fold_generation_is_freed_at_the_publish(self):
        service = DatabaseService(Database(world_facts()))
        try:
            with collector_disabled():
                retired = [weakref.ref(g) for g
                           in generations(service.read_view())]
                folds = service.stats()["store"]["folds"]
                service.add_facts([Fact(f"NEW{i}", MEMBER, "EMPLOYEE")
                                   for i in range(OVERLAY_BUDGET + 1)])
                assert service.stats()["store"]["folds"] == folds + 1
                assert [ref() for ref in retired] == [None, None]
        finally:
            service.close()

    def test_views_work_on_the_master_and_its_snapshots(self):
        db = Database(world_facts())
        db.views.define_function("employer", "WORKS-FOR")
        snapshot = db.snapshot()
        assert "DEPT0" in db.views.materialize("employer")("EMP0")
        assert "DEPT0" in snapshot.views.materialize("employer")("EMP0")
        assert snapshot.views.names() == ["employer"]
        snapshot.views.undefine("employer")
        assert db.views.names() == ["employer"]

    def test_a_snapshot_with_views_is_freed_by_refcount(self):
        db = Database(world_facts())
        db.views.define_function("employer", "WORKS-FOR")
        with collector_disabled():
            snapshot = db.snapshot()
            assert snapshot.views.names() == ["employer"]
            alive = weakref.ref(snapshot)
            del snapshot
            assert alive() is None

    def test_a_catalog_keeps_its_database(self):
        views = Database(world_facts()).views
        views.define_function("employer", "WORKS-FOR")
        assert "DEPT0" in views.materialize("employer")("EMP0")


class TestNoGrowthAcrossFolds:
    """Folds under live readers: after a full collect the tracked heap
    does not grow with the number of folds, and every generation a fold
    retired has been released."""

    def test_ten_folds_hold_no_more_than_two(self):
        service = DatabaseService(Database(world_facts()))
        burst = [Fact(f"TEMP{i}", "WORKS-FOR", "DEPT0")
                 for i in range(OVERLAY_BUDGET + 1)]
        retired = []

        def fold_under_readers(pairs: int) -> None:
            """``pairs`` times an add burst and its removal — two folds,
            and the heap's contents back where they were — while
            readers query."""
            stop = threading.Event()
            errors = []

            def reader():
                try:
                    while not stop.is_set():
                        service.query("(x, WORKS-FOR, DEPT0)")
                        service.probe("(EMP0, KNOWS, y)")
                except Exception as error:     # reported below
                    errors.append(error)

            readers = [threading.Thread(target=reader, daemon=True)
                       for _ in range(READERS)]
            try:
                with short_switch_interval():
                    for thread in readers:
                        thread.start()
                    for _ in range(pairs):
                        retired.extend(weakref.ref(g) for g
                                       in generations(service.read_view()))
                        service.add_facts(burst)
                        retired.extend(weakref.ref(g) for g
                                       in generations(service.read_view()))
                        tickets = [service.remove_async(f) for f in burst]
                        for ticket in tickets:
                            ticket.result(timeout=JOIN_TIMEOUT)
            finally:
                stop.set()
                for thread in readers:
                    thread.join(JOIN_TIMEOUT)
            assert not any(thread.is_alive() for thread in readers)
            assert not errors

        def census() -> tuple:
            # Counted with the readers stopped: gc.get_objects() beside
            # a running thread can hand out a tuple it is still filling.
            gc.collect()
            heap = gc.get_objects()
            return (len(heap),) + tuple(
                sum(isinstance(o, kind) for o in heap)
                for kind in (Database, InternedFactStore,
                             ColumnarGeneration))

        try:
            fold_under_readers(1)       # lazy state fills: not counted
            folds = service.stats()["store"]["folds"]
            fold_under_readers(1)
            after_two = census()
            fold_under_readers(4)
            after_ten = census()
            assert service.stats()["store"]["folds"] >= folds + 10
            current = {id(g) for g in generations(service.read_view())}
            alive = [ref() for ref in retired
                     if ref() is not None and id(ref()) not in current]
            assert alive == []
            # The same facts after two folds and after ten: the same
            # databases (master + published snapshot), stores and
            # generations, and a tracked heap that moves by the
            # collector's untracking of atomic tuples and dicts (±1 000
            # here), not by what eight folds and their publishes would
            # strand (≈ 100 objects a snapshot).
            assert after_ten[1:] == after_two[1:]
            assert after_ten[0] - after_two[0] < 2000
        finally:
            service.close()


# ----------------------------------------------------------------------
# What a recovered heap holds
# ----------------------------------------------------------------------
_RECOVERED_SCRIPT = """
import gc, json, sys
from repro.core.interned import OVERLAY_BUDGET, InternedFactStore
from repro.core.store import FactStore
from repro.storage.session import open_database

db, session = open_database(sys.argv[1])
db.view()
session.checkpoint()
gc.collect()
hash_stores = [len(o) for o in gc.get_objects()
               if isinstance(o, FactStore)
               and not isinstance(o, InternedFactStore)
               and len(o) > OVERLAY_BUDGET]
print(json.dumps({
    "hash_stores": hash_stores,
    "base_facts": len(db.facts),
    "closure_facts": len(db.closure().store),
    "overlays": [getattr(store, "overlay_size", None)
                 for store in (db.facts, db.closure().store)],
}))
"""


class TestARecoveredHeapIsBuiltOnce:
    def test_no_hash_store_and_no_memo_outlive_the_set_up(self, tmp_path):
        """Fresh interpreter, so no other test's store is on its heap."""
        db, session = open_database(tmp_path)
        db.add_facts(world_facts(100))
        session.checkpoint()
        db.add("EMP0", "WORKS-FOR", "DEPT1")     # journal: one add,
        db.remove_fact(Fact("EMP1", "WORKS-FOR", "DEPT0"))  # one remove
        session.close()
        source = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [source] + ([path] if path else [])))
        done = subprocess.run(
            [sys.executable, "-c", _RECOVERED_SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        held = json.loads(done.stdout.splitlines()[-1])
        assert held["base_facts"] > OVERLAY_BUDGET
        assert held["closure_facts"] > held["base_facts"]
        assert held["overlays"] == [0, 0]
        assert held["hash_stores"] == []
