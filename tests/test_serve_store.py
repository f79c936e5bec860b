"""The store a service runs on: every ``DatabaseService`` re-founds its
master on one interned generation per store plus a small overlay, a
publish shares the generation, and the writer folds the overlay once it
passes ``OVERLAY_BUDGET``.

The fold suite drives a seeded random write sequence through a service
and a plain ``Database`` model in lockstep and compares answers after
every step; the recovery tests abandon durable services without
``close()`` and reopen their directories.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from repro.core.entities import ISA, MEMBER
from repro.core.facts import Fact
from repro.core.interned import (
    OVERLAY_BUDGET,
    ColumnarGeneration,
    InternedFactStore,
)
from repro.db import Database
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.query.compile import compile_query
from repro.query.exec import execute_plan
from repro.serve import DatabaseService, ReplicaPool
from repro.storage.session import DurableSession, open_database
from repro.storage.snapshot import SnapshotState, read_snapshot

FIXTURE = Path(__file__).parent / "fixtures" / "durable_pr18"

EMPLOYEES, DEPARTMENTS, FIELDS, SKILLS = 24, 2, 4, 12
JOIN = "(x, WORKS-FOR, d) and (d, ∈, DEPARTMENT) and (x, KNOWS, s)"
OK_PROBE = "(EMP0, WORKS-FOR, d)"
MENU_PROBE = "(EMP0, KNOWS, SKILL11)"       # EMP0 knows SKILL0 only


def world_facts() -> list:
    """A small employees world with a skill taxonomy, so a failing
    ``KNOWS`` probe has a retraction menu."""
    facts = [Fact("EMPLOYEE", ISA, "PERSON")]
    facts += [Fact(f"DEPT{d}", MEMBER, "DEPARTMENT")
              for d in range(DEPARTMENTS)]
    facts += [Fact(f"FIELD{f}", ISA, "AREA") for f in range(FIELDS)]
    facts += [Fact(f"SKILL{s}", ISA, f"FIELD{s % FIELDS}")
              for s in range(SKILLS)]
    for i in range(EMPLOYEES):
        facts.append(Fact(f"EMP{i}", MEMBER, "EMPLOYEE"))
        facts.append(Fact(f"EMP{i}", "WORKS-FOR", f"DEPT{i % DEPARTMENTS}"))
        facts.append(Fact(f"EMP{i}", "KNOWS", f"SKILL{i % (SKILLS - 1)}"))
    return facts


def master_stores(service):
    db = service._db  # noqa: SLF001 - the writer is idle between calls
    return db.facts, db.closure().store


def menu_of(result):
    return (result.succeeded, result.value, len(result.waves),
            [(s.describe(), s.value) for s in result.successes])


@pytest.fixture(params=["memory", "durable"])
def service(request, tmp_path):
    session = None
    if request.param == "durable":
        session = DurableSession(tmp_path / "db")
    svc = DatabaseService(Database(world_facts()), session=session)
    try:
        yield svc
    finally:
        svc.close()


# ----------------------------------------------------------------------
# (a) a publish shares the generation and copies the overlay
# ----------------------------------------------------------------------
def test_publish_shares_the_generation(service):
    assert service.add("NEW", MEMBER, "EMPLOYEE")
    snap = service.read_view()
    for master, published in zip(master_stores(service),
                                 (snap.facts, snap.closure().store)):
        assert isinstance(published, InternedFactStore)
        assert published.generation is master.generation
        assert 0 < published.overlay_size <= OVERLAY_BUDGET
        assert published.frozen and not master.frozen
    assert service.stats()["store"]["generation_facts"] \
        == sum(len(s.generation) for s in master_stores(service))


def test_a_compacted_database_is_not_rebuilt():
    db = Database(world_facts())
    db.view()
    db.compact_store()
    generations = [db.facts.generation, db.closure().store.generation]
    with DatabaseService(db) as svc:
        assert [s.generation for s in master_stores(svc)] == generations
        assert svc.stats()["folds"] == 0


# ----------------------------------------------------------------------
# (b) (c) (e) the fold, against a plain Database model
# ----------------------------------------------------------------------
def random_steps(rng: random.Random, durable: bool):
    """``(verb, facts)`` steps: overlay adds, removals of overlay and
    of generation facts, re-adds of tombstoned facts, bursts that cross
    the budget in one batch, checkpoints."""
    world = world_facts()
    removable = [f for f in world
                 if f[1] == "KNOWS" and f[0] != "EMP0"]
    added, removed, serial = [], [], 0
    for step in range(70):
        roll = rng.random()
        if roll < 0.12:
            size = rng.randrange(OVERLAY_BUDGET // 2, 2 * OVERLAY_BUDGET)
            burst = [Fact(f"B{serial + i}", "KNOWS",
                          f"SKILL{rng.randrange(SKILLS)}")
                     for i in range(size)]
            serial += size
            added += burst[:8]
            yield "add_facts", burst
        elif roll < 0.22 and durable:
            yield "checkpoint", []
        elif roll < 0.40 and added:
            yield "remove", [added.pop(rng.randrange(len(added)))]
        elif roll < 0.58 and removable:
            gone = removable.pop(rng.randrange(len(removable)))
            removed.append(gone)
            yield "remove", [gone]
        elif roll < 0.70 and removed:
            yield "add", [removed.pop(rng.randrange(len(removed)))]
        else:
            name = f"N{serial}"
            serial += 1
            new = [Fact(name, MEMBER, "EMPLOYEE"),
                   Fact(name, "WORKS-FOR", f"DEPT{serial % DEPARTMENTS}"),
                   Fact(name, "KNOWS", f"SKILL{rng.randrange(SKILLS)}")]
            added += new
            yield "add_facts", new


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fold_sequence_matches_a_plain_database(service, seed):
    model = Database(world_facts())
    durable = service.stats()["durable"]
    versions = (0, 0)
    folds = 0
    for verb, facts in random_steps(random.Random(seed), durable):
        held = service.read_view()
        held_answers = (held.query(JOIN), held.match("(x, KNOWS, y)"),
                        menu_of(held.probe(MENU_PROBE, engine="compiled")))

        if verb == "add_facts":
            assert service.add_facts(facts) == model.add_facts(facts)
        elif verb == "add":
            assert service.add(*facts[0]) == model.add_fact(facts[0])
        elif verb == "remove":
            assert service.remove(*facts[0]) == model.remove_fact(facts[0])
        else:
            assert service.checkpoint()

        snap = service.read_view()
        assert service.match("(x, KNOWS, y)") == model.match("(x, KNOWS, y)")
        assert service.query(JOIN) == model.query(JOIN)
        assert menu_of(service.probe(OK_PROBE)) \
            == menu_of(model.probe(OK_PROBE))
        assert menu_of(service.probe(MENU_PROBE)) \
            == menu_of(model.probe(MENU_PROBE))
        assert set(snap.facts) == set(model.facts)
        assert snap.stats()["hierarchy"]["rebuilds"] == 0

        # (e) every published snapshot stays inside the budget, so the
        # executor stays in the integer domain.
        stores = (snap.facts, snap.closure().store)
        assert all(s.overlay_size <= OVERLAY_BUDGET for s in stores)
        _table, run = execute_plan(compile_query(JOIN, snap.view()),
                                   snap.view())
        assert run.id_domain
        # Store versions only move forward, folds included.
        assert all(now >= before for now, before
                   in zip((s.version for s in stores), versions))
        versions = tuple(s.version for s in stores)

        # (c) a reader that captured its snapshot before the step — a
        # fold, often — answers from it unchanged.
        stats = service.stats()
        if stats["folds"] > folds:
            folds = stats["folds"]
            assert held.facts.generation is not snap.facts.generation \
                or held.closure().store.generation \
                is not snap.closure().store.generation
        assert held.query(JOIN) == held_answers[0]
        assert held.match("(x, KNOWS, y)") == held_answers[1]
        assert menu_of(held.probe(MENU_PROBE, engine="compiled")) \
            == held_answers[2]

    stats = service.stats()
    assert stats["folds"] >= 2
    assert stats["store"]["folds"] == stats["folds"]
    assert 0 < stats["store"]["fold_pause_last_s"] \
        <= stats["store"]["fold_pause_max_s"]
    assert f"folds={stats['folds']}" in repr(service)


def test_one_fold_per_batch():
    """A burst far past the budget is one batch, hence one fold."""
    with DatabaseService(Database(world_facts())) as svc:
        burst = [(f"B{i}", "KNOWS", "SKILL1")
                 for i in range(10 * OVERLAY_BUDGET)]
        assert svc.add_facts(burst) == len(burst)
        stats = svc.stats()
        assert stats["folds"] == 1
        assert stats["store"]["overlay_facts"] == 0
        assert stats["store"]["tombstones"] == 0
        assert svc.ask("(B7, KNOWS, FIELD1)")       # derived, post-fold


def test_tombstones_count_against_the_budget():
    """Removals alone fold: the budget is additions *plus* tombstones."""
    facts = world_facts() + [Fact(f"X{i}", "KNOWS", "SKILL2")
                             for i in range(2 * OVERLAY_BUDGET)]
    with DatabaseService(Database(facts)) as svc:
        for i in range(OVERLAY_BUDGET + 1):
            assert svc.remove(f"X{i}", "KNOWS", "SKILL2")
            snap = svc.read_view()
            assert snap.facts.overlay_size <= OVERLAY_BUDGET
        assert svc.stats()["folds"] >= 1
        assert not svc.ask("(X0, KNOWS, SKILL2)")
        assert svc.ask(f"(X{2 * OVERLAY_BUDGET - 1}, KNOWS, FIELD2)")


def test_a_fold_keeps_cached_results_valid():
    """``compact_store`` changes the representation, not the state:
    the store version, and the answer, survive."""
    db = Database(world_facts())
    db.view()
    db.compact_store()
    db.add("N", "KNOWS", "SKILL3")
    answer = db.query(JOIN)
    version = db.facts.version
    assert db.overlay_size > 0
    db.compact_store()
    assert db.overlay_size == 0
    assert db.facts.version == version
    assert db.query(JOIN) == answer


# ----------------------------------------------------------------------
# (d) recovery: the directory holds exactly the acknowledged writes
# ----------------------------------------------------------------------
def recovered_heap(directory) -> set:
    """What a fresh process would load from ``directory`` right now."""
    session = DurableSession(directory)
    try:
        return set(session.recover(strict_journal=True).facts)
    finally:
        session.close()


def test_abandoned_service_recovers_acknowledged_writes(tmp_path):
    directory = tmp_path / "db"
    model = Database(world_facts())
    svc = DatabaseService(Database(world_facts()),
                          session=DurableSession(directory))
    try:
        # 1. no checkpoint at all: the journal alone.
        new = [Fact(f"N{i}", "KNOWS", "SKILL4") for i in range(20)]
        assert svc.add_facts(new) == model.add_facts(new)
        # The initial world was never journaled (it came with the
        # database): checkpoint once so the directory is self-contained,
        # as `serve DIR` always is.
        assert recovered_heap(directory) >= set(new)
        svc.checkpoint()
        assert recovered_heap(directory) == set(model.facts)

        # 2. checkpoint, then a burst that folds, then abandon.
        burst = [Fact(f"B{i}", "KNOWS", "SKILL5")
                 for i in range(2 * OVERLAY_BUDGET)]
        assert svc.add_facts(burst) == model.add_facts(burst)
        assert svc.stats()["folds"] == 1
        assert recovered_heap(directory) == set(model.facts)
        svc.checkpoint()        # writes the folded master
        assert recovered_heap(directory) == set(model.facts)
        assert not (directory / "journal.jsonl").exists()    # truncated

        # 3. tombstones outstanding (generation facts removed, re-added,
        # removed again; no fold since), then abandon.
        for i in range(0, 12, 2):
            gone = Fact(f"EMP{i}", "KNOWS", f"SKILL{i % (SKILLS - 1)}")
            assert svc.remove(*gone) and model.remove_fact(gone)
        back = Fact("EMP2", "KNOWS", "SKILL2")
        assert svc.add(*back) and model.add_fact(back)
        assert svc.remove(*back) and model.remove_fact(back)
        assert svc.stats()["store"]["tombstones"] > 0
        assert recovered_heap(directory) == set(model.facts)
    finally:
        svc.close()     # after the checks: they never relied on it
    assert recovered_heap(directory) == set(model.facts)


def test_directory_written_by_the_previous_release_opens(tmp_path):
    """No format change, both directions: a directory the parent commit
    wrote (checkpoint + journal tail, under ``fixtures/``) serves here,
    and what this service then writes is byte for byte what the plain
    storage layer — untouched by this change — writes for the same heap.
    """
    directory = tmp_path / "db"
    shutil.copytree(FIXTURE, directory)
    expected = {Fact(*row) for row in
                json.loads((directory / "expected.json").read_text())}
    db, session = open_database(directory)
    with DatabaseService(db, session=session) as svc:
        assert set(svc.read_view().facts) == expected
        assert svc.ask("(EMP6, ∈, PERSON)")
        assert svc.add("EMP7", MEMBER, "EMPLOYEE")
        assert svc.remove("EMP0", "EARNS", "20000")
        journal = (directory / "journal.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in journal[-2:]] == [
            {"op": "add", "fact": ["EMP7", MEMBER, "EMPLOYEE"]},
            {"op": "remove", "fact": ["EMP0", "EARNS", "20000"]}]
        svc.checkpoint()
        heap = set(svc.read_view().facts)
    assert heap == expected - {Fact("EMP0", "EARNS", "20000")} \
        | {Fact("EMP7", MEMBER, "EMPLOYEE")}
    state = read_snapshot(directory / "snapshot.json")
    assert set(state.facts) == heap
    assert (directory / "snapshot.json").read_text() == SnapshotState(
        facts=list(heap), rule_states=state.rule_states,
        composition_limit=state.composition_limit).to_json()
    assert not (directory / "journal.jsonl").exists()        # truncated


# ----------------------------------------------------------------------
# The pool's "already interned, empty overlay" fast path after a fold
# ----------------------------------------------------------------------
def test_pool_started_after_a_fold_shares_the_master_generation(
        monkeypatch):
    builds = []
    build = ColumnarGeneration.build.__func__
    monkeypatch.setattr(
        ColumnarGeneration, "build",
        classmethod(lambda cls, *a, **k: builds.append(1)
                    or build(cls, *a, **k)))
    with use_telemetry(Telemetry()) as telemetry:
        svc = DatabaseService(Database(world_facts()))
        try:
            burst = [(f"B{i}", "KNOWS", "SKILL1")
                     for i in range(2 * OVERLAY_BUDGET)]
            svc.add_facts(burst)
            assert svc.stats()["folds"] == 1
            snap = svc.read_view()
            del builds[:]
            pool = ReplicaPool(svc, workers=1, read_timeout=60.0)
            try:
                shared = pool._gen  # noqa: SLF001
                assert shared.base_handle.n == len(snap.facts.generation)
                assert shared.closure_handle.n \
                    == len(snap.closure().store.generation)
                assert builds == []         # shared, not rebuilt
                assert telemetry.counters[
                    "serve.pool.generation_builds"] == 1
                assert ("B3",) in pool.query("(x, KNOWS, FIELD1)")
            finally:
                pool.close()
        finally:
            svc.close()
