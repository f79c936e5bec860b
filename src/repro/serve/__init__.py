"""The concurrent serving layer: many readers, one writer, snapshots.

The paper positions browsing as an *interactive, multi-user* retrieval
method but defers all system concerns to future work (§6).  This
package is that serving tier: :class:`DatabaseService` wraps a
:class:`~repro.db.Database` with reader-writer concurrency —

* **reads** run lock-free against an immutable, frozen, copy-on-write
  snapshot published by the writer (:meth:`repro.db.Database.snapshot`),
  under optional per-request deadlines with cooperative cancellation
  (:mod:`repro.core.deadline`);
* **writes** funnel through a bounded admission queue into a single
  writer thread that coalesces queued mutations into batches, applies
  them to the master database, journals the batch when a
  :class:`~repro.storage.session.DurableSession` is attached, and
  atomically publishes the next snapshot;
* **overload** surfaces as the typed
  :class:`~repro.core.errors.Overloaded` /
  :class:`~repro.core.errors.DeadlineExceeded` hierarchy instead of
  unbounded queueing.

:mod:`repro.serve.net` adds a JSON-lines TCP server and client so the
service can sit behind a socket (``python -m repro.shell serve music``
/ ``python -m repro.shell connect localhost:7474``).

:mod:`repro.serve.pool` scales reads past the GIL:
:class:`ReplicaPool` forks N worker *processes*, each a database
replica attached to the shared-memory generations of the writer's last
fold and kept current by the delta batches the writer thread publishes
(coalesced net fact mutations plus rule/limit controls, in order, over
pipes), applied through the database's incremental maintenance rather
than full recomputation; the next fold's generations replace both.
Reads route primary first — the published snapshot answers while no
other pool read is in flight there — and spill round-robin, with
inflight accounting, to the workers; read-your-writes is preserved by routing ticket-bearing
spilled reads only to replicas that have applied the ticket's version
(primary fallback otherwise); crashed workers respawn and re-attach
automatically.  ``python -m repro.shell serve music
--workers 4`` puts a pool behind the TCP server.  The package loads
:mod:`repro.serve.pool` (and :mod:`multiprocessing`) only when
``ReplicaPool`` is first asked for, so a server without workers never
imports it.

Example::

    from repro import Database
    from repro.serve import DatabaseService

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    with DatabaseService(db) as service:
        service.add("EMPLOYEE", "EARNS", "SALARY")   # via the writer
        service.query("(JOHN, EARNS, y)")            # {("SALARY",)}
"""

from ..core.errors import (
    DeadlineExceeded,
    Overloaded,
    ServiceClosed,
    ServiceError,
)
from ..core.errors import ReplicaError
from .replica import Delta
from .service import DatabaseService, WriteTicket

__all__ = [
    "DatabaseService", "WriteTicket", "ReplicaPool", "Delta",
    "ServiceError", "Overloaded", "DeadlineExceeded", "ServiceClosed",
    "ReplicaError",
]


def __getattr__(name: str):
    # PEP 562: the pool pulls in multiprocessing, which a server
    # without workers never needs, so it is imported on first use.
    if name == "ReplicaPool":
        from .pool import ReplicaPool

        return ReplicaPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
