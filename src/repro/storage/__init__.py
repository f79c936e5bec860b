"""Persistence substrate: journal, snapshot, durable sessions.

The paper defers storage to future work (§6.2); this package provides
the minimal durable substrate a usable library needs: an append-only
JSON-lines journal of mutations, atomically written snapshot files,
and :class:`~repro.storage.session.DurableSession` tying both to a
live database with replay-on-open recovery.  A one-fact-per-line text
interchange format (:mod:`repro.storage.interchange`, which the package
does not import) rounds it out for export/import and merging.

Example::

    import tempfile

    from repro.storage.session import open_database

    directory = tempfile.mkdtemp() + "/db"
    db, session = open_database(directory)
    db.add("A", "R", "B")                  # journaled automatically
    session.close()
    db2, session2 = open_database(directory)
    assert db2.ask("(A, R, B)")            # recovered by replay
    session2.close()
"""

from .journal import OP_ADD, OP_REMOVE, Journal, JournalEntry
from .session import DurableSession, open_database
from .snapshot import SnapshotState, read_snapshot, write_snapshot

__all__ = [
    "OP_ADD", "OP_REMOVE", "Journal", "JournalEntry", "DurableSession",
    "open_database", "SnapshotState", "read_snapshot", "write_snapshot",
]
