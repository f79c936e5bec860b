"""What a durable directory keeps when a process dies part way.

Two kinds of crash: an append torn off mid-line (the journal's final
line is a fragment, or a complete record without its newline), and a
checkpoint that fails at one of its steps — while encoding, before the
snapshot's rename, or after the rename but before the journal is
truncated.  After each the directory must reopen to exactly the heap of
a plain ``Database`` model that applied the acknowledged writes, and
keep doing so through later writes and restarts.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.core.errors import StorageError
from repro.core.facts import Fact
from repro.db import Database
from repro.serve import DatabaseService
from repro.storage import snapshot as snapshot_module
from repro.storage.journal import Journal
from repro.storage.session import (
    JOURNAL_NAME,
    DurableSession,
    open_database,
)
from repro.storage.snapshot import SnapshotState

TORN = '{"op": "add", "fact": ["C"'
WHOLE_WITHOUT_NEWLINE = json.dumps({"op": "add", "fact": ["C", "R", "D"]})


def recovered(directory) -> set:
    database, session = open_database(directory)
    session.close()
    return set(database.facts)


def strict_entries(directory) -> list:
    return list(Journal(directory / JOURNAL_NAME).entries(strict=True))


def restart_and_add(directory, fact: Fact) -> None:
    """One process life: reopen, acknowledge one write, die (the journal
    line is flushed before ``add_fact`` returns)."""
    database, session = open_database(directory)
    assert database.add_fact(fact)
    session.close()


# ----------------------------------------------------------------------
# A torn journal tail
# ----------------------------------------------------------------------
def started_directory(tmp_path):
    directory = tmp_path / "d"
    database, session = open_database(directory)
    database.add("A", "R", "B")
    session.close()
    return directory, set(database.facts)


def test_a_torn_fragment_is_cut_and_later_writes_survive(tmp_path):
    directory, acknowledged = started_directory(tmp_path)
    with open(directory / JOURNAL_NAME, "a", encoding="utf-8") as handle:
        handle.write(TORN)
    for name in ("X", "Y"):           # two more restarts, one write each
        fact = Fact(name, "R", "B")
        restart_and_add(directory, fact)
        acknowledged.add(fact)
        assert recovered(directory) == acknowledged
    assert len(strict_entries(directory)) == 3      # A, X, Y: no fragment


def test_a_record_without_its_newline_is_kept_and_terminated(tmp_path):
    directory, acknowledged = started_directory(tmp_path)
    with open(directory / JOURNAL_NAME, "a", encoding="utf-8") as handle:
        handle.write(WHOLE_WITHOUT_NEWLINE)
    acknowledged.add(Fact("C", "R", "D"))
    for name in ("X", "Y"):
        fact = Fact(name, "R", "B")
        restart_and_add(directory, fact)
        acknowledged.add(fact)
        assert recovered(directory) == acknowledged
    assert len(strict_entries(directory)) == 4


def test_a_fragment_torn_inside_a_character_is_cut(tmp_path):
    directory, acknowledged = started_directory(tmp_path)
    line = json.dumps({"op": "add", "fact": ["ZOË", "∈", "EMPLOYEE"]},
                      ensure_ascii=False).encode("utf-8")
    with open(directory / JOURNAL_NAME, "ab") as handle:
        handle.write(line[:line.index("∈".encode()) + 1])
    restart_and_add(directory, Fact("X", "R", "B"))
    assert recovered(directory) == acknowledged | {Fact("X", "R", "B")}


def test_repair_reports_what_it_changed(tmp_path):
    journal = Journal(tmp_path / "j.jsonl")
    assert journal.repair_tail() == 0                # no file
    journal.path.write_text("")
    assert journal.repair_tail() == 0                # empty file
    journal.path.write_text(WHOLE_WITHOUT_NEWLINE + "\n" + TORN)
    assert journal.repair_tail() == len(TORN)
    assert journal.path.read_text() == WHOLE_WITHOUT_NEWLINE + "\n"
    assert journal.repair_tail() == 0                # already whole
    journal.path.write_text(WHOLE_WITHOUT_NEWLINE)
    assert journal.repair_tail() == 1
    assert journal.path.read_text() == WHOLE_WITHOUT_NEWLINE + "\n"
    journal.path.write_text(TORN)                    # nothing but a fragment
    assert journal.repair_tail() == len(TORN)
    assert journal.path.read_text() == ""
    # A final line lenient replay skips is cut even with its newline:
    # the next append would make it an interior line, which always raises.
    journal.path.write_text(WHOLE_WITHOUT_NEWLINE + "\ngarbage\n")
    assert journal.repair_tail() == len("garbage\n")
    assert journal.path.read_text() == WHOLE_WITHOUT_NEWLINE + "\n"


def test_a_strict_recovery_still_raises_and_changes_nothing(tmp_path):
    directory, _ = started_directory(tmp_path)
    path = directory / JOURNAL_NAME
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(TORN)
    before = path.read_bytes()
    with pytest.raises(StorageError, match="malformed journal line"):
        open_database(directory, strict_journal=True)
    assert path.read_bytes() == before


# ----------------------------------------------------------------------
# A checkpoint that fails part way
# ----------------------------------------------------------------------
class Crash(OSError):
    """The injected failure (an OSError, as a full disk would raise)."""


def crash(*_args, **_kwargs):
    raise Crash("injected")


CRASH_POINTS = {
    "encode": (SnapshotState, "to_json"),
    "before-replace": (snapshot_module.os, "replace"),
    "after-replace": (Journal, "truncate"),
}


def mutate(database: Database, model: Database, step: int) -> None:
    """Adds and removes, some of them undoing earlier ones, so replaying
    a journal twice would show if it were not idempotent."""
    for i in range(6):
        fact = Fact(f"E{step}-{i}", "WORKS-FOR", f"DEPT{i % 2}")
        assert database.add_fact(fact) == model.add_fact(fact)
    gone = Fact(f"E{step}-0", "WORKS-FOR", "DEPT0")
    assert database.remove_fact(gone) == model.remove_fact(gone)
    back = Fact("E0-1", "WORKS-FOR", "DEPT1")
    assert database.remove_fact(back) == model.remove_fact(back)
    assert database.add_fact(back) == model.add_fact(back)


def leftovers(directory) -> list:
    return sorted(p.name for p in directory.iterdir()
                  if p.name.endswith(".tmp"))


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_a_failed_checkpoint_loses_nothing(tmp_path, monkeypatch, point):
    directory = tmp_path / "d"
    model = Database()
    database, session = open_database(directory)
    mutate(database, model, 0)
    session.checkpoint()
    mutate(database, model, 1)
    monkeypatch.setattr(*CRASH_POINTS[point], crash)
    with pytest.raises(Crash):
        session.checkpoint()
    monkeypatch.undo()
    session.close()                                   # the process dies
    assert leftovers(directory) == []
    assert recovered(directory) == set(model.facts)
    # The directory keeps working: more writes, a checkpoint, a restart.
    database, session = open_database(directory)
    mutate(database, model, 2)
    session.checkpoint()
    session.close()
    assert recovered(directory) == set(model.facts)
    assert leftovers(directory) == []


def test_replaying_the_whole_journal_over_its_checkpoint_is_idempotent(
        tmp_path):
    """A crash between the rename and the truncation leaves a snapshot
    that already holds every journaled write; replaying them again over
    it changes nothing, however often it happens."""
    directory = tmp_path / "d"
    model = Database()
    database, session = open_database(directory)
    mutate(database, model, 0)
    session.checkpoint()
    for step in (1, 2, 3):
        mutate(database, model, step)
        journal = (directory / JOURNAL_NAME).read_bytes()
        session.checkpoint()
        (directory / JOURNAL_NAME).write_bytes(journal)  # untruncated
        session.close()
        assert recovered(directory) == set(model.facts)
        assert recovered(directory) == set(model.facts)
        database, session = open_database(directory)
        assert set(database.facts) == set(model.facts)
    session.close()


def test_a_served_checkpoint_that_fails_after_its_rename(tmp_path,
                                                         monkeypatch):
    directory = tmp_path / "d"
    model = Database()
    service = DatabaseService(Database(), session=DurableSession(directory))
    try:
        facts = [Fact(f"S{i}", "KNOWS", "SKILL0") for i in range(5)]
        assert service.add_facts(facts) == model.add_facts(facts)
        service.checkpoint()
        more = [Fact(f"T{i}", "KNOWS", "SKILL1") for i in range(5)]
        assert service.add_facts(more) == model.add_facts(more)
        monkeypatch.setattr(Journal, "truncate", crash)
        with pytest.raises(StorageError, match="checkpoint of"):
            service.checkpoint()
        monkeypatch.undo()
        assert service.stats()["checkpoint_failures"] == 1
        assert service.remove("S0", "KNOWS", "SKILL0")
        assert model.remove_fact(Fact("S0", "KNOWS", "SKILL0"))
        assert recovered(directory) == set(model.facts)
    finally:
        service.close()
    assert recovered(directory) == set(model.facts)
    assert leftovers(directory) == []


def test_a_checkpoint_syncs_its_directory_before_truncating(tmp_path,
                                                            monkeypatch):
    """The snapshot's rename is durable only once its directory is
    synced: were the journal truncated first, a host crash could leave
    the previous snapshot beside an empty journal."""
    directory = tmp_path / "d"
    database, session = open_database(directory)
    database.add("A", "R", "B")
    events = []
    real_fsync, real_truncate = os.fsync, Journal.truncate

    def fsync(fd):
        synced = os.fstat(fd)
        if stat.S_ISDIR(synced.st_mode):
            events.append("directory" if os.path.samestat(
                synced, os.stat(directory)) else "other directory")
        else:
            events.append("file")
        real_fsync(fd)

    def truncate(journal):
        events.append("truncate")
        real_truncate(journal)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(Journal, "truncate", truncate)
    session.checkpoint()
    monkeypatch.undo()
    session.close()
    assert "directory" in events
    last_file = len(events) - 1 - events[::-1].index("file")
    assert last_file < events.index("directory") \
        < events.index("truncate"), events
    assert recovered(directory) == {Fact("A", "R", "B")} | set(
        Database().facts)
