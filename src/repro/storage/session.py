"""Durable sessions: snapshot + journal under one directory.

Layout::

    <directory>/
        snapshot.json   # latest checkpoint (atomic)
        journal.jsonl   # mutations since that checkpoint

``open_database`` recovers the state (snapshot, then journal replay);
``attach`` wires a live :class:`~repro.db.Database` so subsequent
mutations journal automatically; ``checkpoint`` folds the journal into
a fresh snapshot.

With telemetry on, a checkpoint records ``storage.checkpoint`` (ms)
and ``storage.snapshot_bytes``; a recovery ``storage.recover_s`` and,
when it had to cut or terminate the journal's final line,
``storage.journal_repaired_bytes``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Union

from ..core.heap import heap_build
from ..obs import telemetry as _obs
from .journal import OP_ADD, OP_REMOVE, Journal
from .snapshot import SnapshotState, read_snapshot, write_snapshot

SNAPSHOT_NAME = "snapshot.json"
JOURNAL_NAME = "journal.jsonl"

#: ``storage.checkpoint`` bounds (milliseconds): a few ms for a heap of
#: thousands of facts, tens for the tens of thousands of a large one.
CHECKPOINT_BUCKETS_MS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                         250.0, 500.0, 1e3, 2.5e3, 1e4)


class DurableSession:
    """Binds a database to an on-disk directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self.journal = Journal(self.directory / JOURNAL_NAME)
        self._database = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, strict_journal: bool = False):
        """Rebuild a Database from snapshot + journal replay (an O(heap)
        build: :func:`~repro.core.heap.heap_build`).

        A lenient recovery leaves the journal ending at a line boundary
        (:meth:`Journal.repair_tail`): the torn final line it skips is
        cut off, so the writes appended next are not lost with it.  A
        strict one raises on that line and changes nothing.
        """
        from ..db import Database

        started = time.perf_counter()
        repaired = 0 if strict_journal else self.journal.repair_tail()
        with heap_build():
            if self.snapshot_path.exists():
                state = read_snapshot(self.snapshot_path)
                database = Database(with_axioms=False)
                for name, text, is_constraint in state.rules:
                    database.define_rule(name, text,
                                         is_constraint=is_constraint)
                database.rules.restore_state(state.rule_states)
                database.composition_limit = state.composition_limit
                database.add_facts(state.facts)
            else:
                database = Database()
            for entry in self.journal.entries(strict=strict_journal):
                if entry.op == OP_ADD:
                    database.add_fact(entry.fact)
                else:
                    database.remove_fact(entry.fact)
        if _obs.ENABLED:
            telemetry = _obs.TELEMETRY
            telemetry.gauge("storage.recover_s",
                            time.perf_counter() - started)
            if repaired:
                telemetry.count("storage.journal_repaired_bytes", repaired)
        return database

    # ------------------------------------------------------------------
    # Live attachment
    # ------------------------------------------------------------------
    def attach(self, database) -> None:
        """Journal every subsequent mutation of ``database``."""
        self._database = database
        database._on_mutation = self._record  # noqa: SLF001 (by design)

    def detach(self) -> None:
        if self._database is not None:
            self._database._on_mutation = None
            self._database = None

    def _record(self, op: str, fact) -> None:
        self.journal.append(OP_ADD if op == "add" else OP_REMOVE, fact)

    def record_batch(self, mutations) -> int:
        """Journal many ``(op, fact)`` pairs with one write+flush.

        ``op`` is ``"add"`` or ``"remove"`` (the mutation-callback
        vocabulary).  Used by :class:`repro.serve.DatabaseService`,
        whose writer coalesces queued mutations and journals them as
        one batch instead of attaching per-fact callbacks.
        """
        return self.journal.append_batch(
            (OP_ADD if op == "add" else OP_REMOVE, fact)
            for op, fact in mutations)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, database=None) -> None:
        """Fold the journal into a fresh snapshot.

        ``database`` defaults to the attached one; the serving layer
        passes its master database explicitly because it journals
        batches itself instead of attaching.
        """
        if database is None:
            database = self._database
        if database is None:
            raise RuntimeError("no database attached; call attach() first"
                               " or pass database=")
        started = time.perf_counter()
        state = SnapshotState(
            facts=list(database.facts),
            rule_states=database.rules.snapshot_state(),
            composition_limit=database.composition_limit,
            rules=[(rule.name, rule.text, rule.is_constraint)
                   for rule in database.rules.all_rules() if rule.text],
        )
        size = write_snapshot(self.snapshot_path, state)
        self.journal.truncate()
        if _obs.ENABLED:
            telemetry = _obs.TELEMETRY
            telemetry.observe("storage.checkpoint",
                              1e3 * (time.perf_counter() - started),
                              CHECKPOINT_BUCKETS_MS)
            telemetry.gauge("storage.snapshot_bytes", size)

    def close(self) -> None:
        self.detach()
        self.journal.close()

    def __enter__(self) -> "DurableSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_database(directory: Union[str, Path],
                  strict_journal: bool = False):
    """Open (or create) a durable database at ``directory``.

    Returns ``(database, session)``; mutations journal automatically.
    Call ``session.checkpoint()`` to compact, ``session.close()`` when
    done.
    """
    session = DurableSession(directory)
    database = session.recover(strict_journal=strict_journal)
    session.attach(database)
    return database, session
