"""DatabaseService: one writer, many snapshot-isolated readers.

Concurrency model
-----------------

The service owns a private *master* :class:`~repro.db.Database` that
only the writer thread ever touches, plus one *published* snapshot
(a frozen, read-only clone produced by
:meth:`repro.db.Database.snapshot`).  Base heap and closure read one
immutable columnar generation of the closure's rows, the base heap's
flagged among them — a database is built that way, and the service
folds whatever overlays the caller's database arrives with at
construction (:meth:`repro.db.Database.compact_store`) — each store
with its own small overlay of additions and tombstones, so a publish
*shares* the generation and copies only the overlays.  The writer owns the fold: a
batch that leaves a store's overlay above
:data:`~repro.core.interned.OVERLAY_BUDGET` — or that recomputed the
closure (a rule or limit control, an ``(r, ∈, R_c)`` declaration, an
``auto_check`` rollback) — folds it into a fresh generation before
publishing (once per batch; ``stats()["store"]``), and says so on the
batch's :class:`~repro.serve.replica.Delta`, which is what the replica
pool shares with its workers.  Every other batch's record carries the
closure change the writer's incremental maintenance made, so the batch
is derived once, here, and never again on a replica.
The division of labour:

* **Readers** grab a local reference to the published snapshot — a
  single attribute read, atomic under the GIL — and evaluate against
  it without any locking.  The snapshot's stores are frozen, so a
  stray mutation raises :class:`~repro.core.errors.FrozenStoreError`
  instead of corrupting concurrent reads.  Each read runs inside a
  :func:`repro.core.deadline.deadline_scope`, so long evaluations are
  cancelled cooperatively at the checkpoints inside the evaluator and
  the closure engines.

* **Writers** enqueue typed operations onto a bounded admission queue
  (:class:`~repro.core.errors.Overloaded` once ``max_pending`` is
  reached) and receive a :class:`WriteTicket`.  A single writer thread
  drains the queue, taking everything queued when it wakes as a batch
  (writes that arrive while it applies one batch form the next; it
  waits one ``batch_window`` first only when a queued write came from
  an ``*_async`` call, whose submitter can send more meanwhile): it
  applies the ops to the master, journals the effective mutations in
  one append
  (:meth:`repro.storage.session.DurableSession.record_batch`),
  maintains the closure, rebuilds the generalization lattice if a
  ``≺`` fact changed, and atomically publishes the next snapshot.
  Tickets resolve only *after* publication, so a caller that waited
  for its write is guaranteed to see it in subsequent reads
  (read-your-writes).

No plan and no answer is carried from one snapshot to the next (the
one place a whole answer is remembered is the net layer's per-snapshot
memo, :mod:`repro.serve.net`, which a publish empties).

Checkpointing degrades gracefully: the writer folds the journal into a
fresh snapshot file while readers keep serving the last published
in-memory snapshot — no read downtime.

Example::

    from repro import Database
    from repro.serve import DatabaseService

    service = DatabaseService(Database())
    try:
        service.add("BRAHMS", "∈", "COMPOSER")        # waits for publish
        assert service.ask("(BRAHMS, ∈, COMPOSER)")   # lock-free read
        ticket = service.add_async(("MAHLER", "∈", "COMPOSER"))
        ticket.result(timeout=5.0)                     # explicit wait
    finally:
        service.close()
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..core.errors import (
    DeadlineExceeded,
    Overloaded,
    ReproError,
    ServiceClosed,
    ServiceError,
    StorageError,
)
from ..core.facts import Fact, fact as make_fact
from ..core.interned import OVERLAY_BUDGET
from ..db import Database
from ..obs import telemetry as _obs
from ..obs.context import SpanRecord, TraceContext, new_span_id
from ..obs.slowlog import SlowQueryLog
from .replica import Delta, bind_read, run_read

__all__ = ["DatabaseService", "WriteTicket"]


def _as_fact(value) -> Fact:
    if isinstance(value, Fact):
        return value
    return make_fact(*value)


def _coalesce(entries) -> Tuple[Tuple[Fact, ...], Tuple[Fact, ...]]:
    """A batch's journal entries — or its closure log — as net
    ``(adds, removes)``.

    Both record *effective* mutations of one store, so per fact they
    strictly alternate add/remove: an even count cancels out (the batch
    left that fact as it found it) and an odd count nets to the final
    operation.  Replicas therefore apply exactly the batch's net effect
    on the base heap and on the closure, without replaying intermediate
    flips.
    """
    last: dict = {}
    count: dict = {}
    for op, f in entries:
        last[f] = op
        count[f] = count.get(f, 0) + 1
    adds = tuple(f for f, op in last.items()
                 if op == "add" and count[f] % 2 == 1)
    removes = tuple(f for f, op in last.items()
                    if op == "remove" and count[f] % 2 == 1)
    return adds, removes


class WriteTicket:
    """A pending write: resolves once the writer has published it.

    Returned by the ``*_async`` submission methods.  ``result()``
    blocks until the batch containing this operation has been applied
    *and* the next snapshot published, then returns the operation's
    outcome (or re-raises the error it hit on the writer thread).
    """

    __slots__ = ("_event", "_value", "_error", "_version")

    def __init__(self):
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None
        self._version: Optional[int] = None

    def _resolve(self, value) -> None:
        self._value = value
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def version(self) -> Optional[int]:
        """The replication sequence that covers this write, once it is
        settled (``None`` before).  A replica whose applied version is
        at least this value has seen the write — the routing key for
        read-your-writes across :class:`repro.serve.pool.ReplicaPool`.
        """
        return self._version

    def done(self) -> bool:
        """True once the writer has settled this operation."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        """Wait for the outcome.

        Raises :class:`~repro.core.errors.DeadlineExceeded` if the
        writer has not settled the operation within ``timeout``
        seconds.  Note the write is *not* revoked on timeout — it
        stays queued and may still be applied later.
        """
        if not self._event.wait(timeout):
            raise DeadlineExceeded(
                "write not applied within deadline"
                " (it remains queued and may still be applied)")
        if self._error is not None:
            raise self._error
        return self._value


# One queued operation: (kind, payload, ticket, trace context or None).
_Op = Tuple[str, Any, WriteTicket, Optional[TraceContext]]

_MUTATING_KINDS = frozenset(
    {"add", "add_many", "remove", "limit", "include", "exclude",
     "define_rule"})


class DatabaseService:
    """Thread-safe serving facade over a :class:`~repro.db.Database`.

    Args:
        db: the master database (a fresh empty one by default).  The
            service takes ownership: it computes the closure on the
            store the database arrived with, re-founds base and
            closure on interned storage, and from then on touching the
            database directly from other threads voids the concurrency
            guarantees.
        session: optional :class:`~repro.storage.session.DurableSession`;
            when given, every writer batch is journaled in one append
            and ``checkpoint()`` folds the journal into the snapshot
            file.  The service detaches any per-fact callback and
            journals batches itself.
        max_pending: admission-queue bound; submissions beyond it
            raise :class:`~repro.core.errors.Overloaded`.
        batch_window: seconds the writer lets a pipelining submitter
            pile on.  The writer drains whatever is queued the moment
            it wakes, and writes that arrive while that batch applies
            and publishes form the next one; it sleeps one window
            first only when the queue holds a write nobody is blocked
            on — one submitted through ``add_async`` / ``remove_async``
            / ``add_facts_async``, whose caller can submit the next
            before this one is acknowledged.  A blocking call
            (``add``, ``remove``, …, every write over TCP) cannot, so
            it is never held back: its acknowledgement costs the
            write, not the write plus a timer tick.
        max_batch: cap on operations per writer batch (``None`` =
            unbounded).  An unbounded writer drains everything queued,
            so a large backlog becomes one giant batch whose closure
            recomputation stalls ticket resolution and stretches the
            publish pause into a multi-millisecond read tail; the cap
            bounds that pause while keeping coalescing (leftover
            operations are drained immediately in follow-up batches,
            with no extra batch window).
        default_deadline: per-request deadline in seconds applied to
            reads and write waits when the call does not pass its own.
        slow_query_seconds: reads slower than this land in
            :attr:`slow_log` with their op, payload text, trace id,
            and (for compiled queries) the plan's est-vs-actual
            operator stats.  ``None`` (default) disables the log.
            With a threshold the service holds telemetry enabled from
            construction to :meth:`close` (the autopsies are ordinary
            telemetry), then leaves it as it found it.
        start: start the writer thread immediately (tests pass False
            to stage queue states deterministically).
    """

    def __init__(self, db: Optional[Database] = None, *,
                 session=None,
                 max_pending: int = 1024,
                 batch_window: float = 0.002,
                 max_batch: Optional[int] = 256,
                 default_deadline: Optional[float] = None,
                 slow_query_seconds: Optional[float] = None,
                 start: bool = True):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1 (or None)")
        self._db = db if db is not None else Database()
        self._session = session
        if session is not None:
            # The service journals whole batches; a per-fact callback
            # would double-record every mutation.
            session.detach()
        self.max_pending = max_pending
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.default_deadline = default_deadline
        self.slow_query_seconds = slow_query_seconds
        self.slow_log = SlowQueryLog()
        # The autopsies a slow record carries are ordinary telemetry.
        self._holds_telemetry = (slow_query_seconds is not None
                                 and not _obs.ENABLED)
        if self._holds_telemetry:
            _obs.enable_telemetry()

        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._ops: deque = deque()
        self._closed = False
        self._writer: Optional[threading.Thread] = None

        # Set (under the lock) by a submission nobody waits on, cleared
        # when the writer takes a batch.
        self._pipelined = False

        # Writer-thread statistics (written only by the writer).
        self._batches = 0
        self._batch_waits = 0
        self._ops_applied = 0
        self._largest_batch = 0
        self._publishes = 0
        self._checkpoints = 0
        self._checkpoint_failures = 0
        self._publish_pause_last = 0.0
        self._publish_pause_max = 0.0
        self._publish_pause_total = 0.0
        self._folds = 0
        self._fold_pause_last = 0.0
        self._fold_pause_max = 0.0

        # Replication: the sequence number of the latest published
        # batch, and the delta subscribers it is shipped to (the
        # replica pool).  Subscribers run on the writer thread, after
        # publication and before ticket settlement, so by the time a
        # write call returns its delta is already in every replica's
        # ordered pipe.
        self._applied_seq = 0
        self._delta_subscribers: List[Callable] = []

        # Initial publication happens on the constructing thread; the
        # writer has not started yet, so the master is ours to touch.
        # Heap and closure end on one shared generation: from here on
        # a publish shares it.  A closure is built folded, with the heap
        # re-founded on its stored rows (``standard_closure``), so the
        # fold finds nothing to do unless the database was mutated by
        # hand after its closure: those overlays are folded here.
        self._db.view()
        self._db.compact_store()
        snap = self._build_snapshot()
        # One attribute holding the (snapshot, sequence) pair, and the
        # only place the published snapshot lives: readers, the pool
        # and the TCP layer's answer memo all capture it with a single
        # ref grab, so none can see a snapshot the others do not.
        self._published_state: Tuple[Database, int] = (snap, 0)
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the writer thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            if self._writer is not None and self._writer.is_alive():
                return
            self._writer = threading.Thread(
                target=self._writer_loop, name="repro-serve-writer",
                daemon=True)
            self._writer.start()

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Drain queued writes, stop the writer, close the session.

        Operations already queued are applied before the writer exits;
        submissions after ``close`` raise
        :class:`~repro.core.errors.ServiceClosed`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._has_work.notify_all()
            writer = self._writer
        if writer is not None and writer.is_alive():
            writer.join(timeout)
        # If the writer never ran (start=False) or failed to drain in
        # time, settle the leftovers so no caller blocks forever.
        with self._lock:
            leftovers = list(self._ops)
            self._ops.clear()
        for _, _, ticket, _ in leftovers:
            ticket._reject(ServiceClosed("service closed before the"
                                         " operation was applied"))
        if self._session is not None:
            self._session.close()
        if self._holds_telemetry:
            _obs.disable_telemetry()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DatabaseService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Writer thread
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        backlog = False
        while True:
            with self._has_work:
                while not self._ops and not self._closed:
                    self._has_work.wait()
                if not self._ops and self._closed:
                    return
                pile_on = self._pipelined and not backlog
            # Take what is queued as a single batch — at most
            # ``max_batch`` operations, so one burst cannot become an
            # arbitrarily long publish pause.  Whatever arrives while
            # this batch applies and publishes is the next batch, so
            # blocked submitters coalesce without a timer.  A
            # pipelining submitter is different: it can only run while
            # this thread does not, so its next writes get one window
            # to arrive — except after a drain that left a backlog,
            # where they already have.
            if self.batch_window > 0 and pile_on:
                self._batch_waits += 1
                time.sleep(self.batch_window)
            with self._lock:
                self._pipelined = False
                if self.max_batch is None:
                    batch: List[_Op] = list(self._ops)
                    self._ops.clear()
                else:
                    batch = [self._ops.popleft()
                             for _ in range(min(len(self._ops),
                                                self.max_batch))]
                backlog = bool(self._ops)
                if _obs.ENABLED:
                    _obs.TELEMETRY.gauge("serve.queue_depth",
                                         len(self._ops))
            try:
                self._apply_batch(batch)
            except Exception as error:  # pragma: no cover - defensive
                # A bug in batch application must not strand callers:
                # settle every unresolved ticket and keep serving the
                # previously published snapshot.
                wrapped = ServiceError(f"writer failed: {error!r}")
                wrapped.__cause__ = error
                for _, _, ticket, _ in batch:
                    if not ticket.done():
                        ticket._reject(wrapped)

    def _apply_batch(self, batch: List[_Op]) -> None:
        span = (_obs.TELEMETRY.span("serve.batch", size=len(batch))
                if _obs.ENABLED else _obs.NULL_SPAN)
        settled: List[Tuple[WriteTicket, Any, Optional[BaseException]]] = []
        batch_started_wall = time.time()
        batch_started = time.perf_counter()
        db = self._db
        with span:
            journal_entries: List[Tuple[str, Fact]] = []
            # The closure's net change, as maintenance reports it; an
            # invalidation (a control, an (r, ∈, R_c) declaration, an
            # auto_check rollback) sets it back to None.
            db._closure_log = []  # noqa: SLF001
            mutated = False
            checkpoints: List[int] = []     # indexes into ``settled``
            fold_asked = False
            for kind, payload, ticket, _ctx in batch:
                try:
                    outcome: Any
                    if kind == "add":
                        outcome = self._db.add_fact(payload)
                        if outcome:
                            journal_entries.append(("add", payload))
                            mutated = True
                    elif kind == "add_many":
                        added = 0
                        for grouped in payload:
                            if self._db.add_fact(grouped):
                                journal_entries.append(("add", grouped))
                                mutated = True
                                added += 1
                        outcome = added
                    elif kind == "remove":
                        outcome = self._db.remove_fact(payload)
                        if outcome:
                            journal_entries.append(("remove", payload))
                            mutated = True
                    elif kind == "limit":
                        self._db.limit(payload)
                        outcome = payload
                        mutated = True
                    elif kind == "include":
                        self._db.include(payload)
                        outcome = True
                        mutated = True
                    elif kind == "exclude":
                        self._db.exclude(payload)
                        outcome = True
                        mutated = True
                    elif kind == "define_rule":
                        name, text, is_constraint = payload
                        outcome = self._db.define_rule(
                            name, text, is_constraint=is_constraint)
                        mutated = True
                    elif kind == "checkpoint":
                        checkpoints.append(len(settled))
                        outcome = True
                    elif kind == "fold":
                        fold_asked = mutated = True
                        outcome = True
                    else:  # pragma: no cover - guarded at submission
                        raise ServiceError(f"unknown operation {kind!r}")
                except (ReproError, ValueError) as error:
                    settled.append((ticket, None, error))
                else:
                    settled.append((ticket, outcome, None))
            closure_entries = db._closure_log  # noqa: SLF001
            db._closure_log = None  # noqa: SLF001
            if journal_entries and self._session is not None:
                self._session.record_batch(journal_entries)
            delta = None
            if mutated:
                publish_started = time.perf_counter()
                # The batch recomputed the closure: re-found it now, so
                # replicas attach the result instead of recomputing it.
                folded = self._fold_if_due(
                    0 if fold_asked or closure_entries is None
                    else OVERLAY_BUDGET)
                snap = self._build_snapshot()
                pause = time.perf_counter() - publish_started \
                    - (folded or 0.0)
                self._publish_pause_last = pause
                self._publish_pause_max = max(self._publish_pause_max,
                                              pause)
                self._publish_pause_total += pause
                self._applied_seq += 1
                self._published_state = (snap, self._applied_seq)
                adds, removes = _coalesce(journal_entries)
                closure_adds = closure_removes = ()
                closure_stats = None
                if closure_entries is not None:
                    closure_adds, closure_removes = _coalesce(
                        closure_entries)
                    closure_stats = db.standard_closure().statistics()
                delta = Delta(version=self._applied_seq, adds=adds,
                              removes=removes, folded=folded is not None,
                              closure_adds=closure_adds,
                              closure_removes=closure_removes,
                              closure_stats=closure_stats)
                if _obs.ENABLED:
                    _obs.TELEMETRY.gauge("serve.publish_pause_seconds",
                                         pause)
                    _obs.TELEMETRY.observe("serve.publish_pause", pause)
            if checkpoints and self._session is not None:
                # Readers keep hitting the published in-memory snapshot
                # while the on-disk one is rewritten.
                self._checkpoints += 1
                try:
                    self._session.checkpoint(database=self._db)
                except (OSError, StorageError) as error:
                    # The batch's writes are journaled and published:
                    # only the checkpoint failed, and the journal it
                    # would have truncated still holds them.
                    self._checkpoint_failures += 1
                    if _obs.ENABLED:
                        _obs.TELEMETRY.count("serve.checkpoint_failures")
                    failure = StorageError(
                        f"checkpoint of {self._session.snapshot_path}"
                        f" failed: {error}")
                    failure.__cause__ = error
                    for index in checkpoints:
                        settled[index] = (settled[index][0], None, failure)
            self._batches += 1
            self._ops_applied += len(batch)
            self._largest_batch = max(self._largest_batch, len(batch))
            if _obs.ENABLED:
                telemetry = _obs.TELEMETRY
                telemetry.count("serve.batches")
                telemetry.count("serve.ops_applied", len(batch))
                telemetry.gauge("serve.batch_size", len(batch))
                telemetry.observe("serve.batch_seconds",
                                  time.perf_counter() - batch_started)
        # Traced writes get a writer-thread span covering their batch:
        # one record per traced op, all sharing the batch's timing, so
        # the client's stitched tree shows where its write was applied.
        batch_wall = time.perf_counter() - batch_started
        for kind, _payload, _ticket, ctx in batch:
            if ctx is not None:
                ctx.add_record(SpanRecord(
                    trace_id=ctx.trace_id, span_id=new_span_id(),
                    parent_id=ctx.parent_id, name="writer.apply_batch",
                    role="writer", pid=os.getpid(),
                    start=batch_started_wall, wall=batch_wall,
                    attributes={"op": kind, "batch_size": len(batch),
                                "version": self._applied_seq}))
        # Ship the delta before settling tickets: once a write call
        # returns, its delta is already in every replica's ordered
        # pipe, so version-routed reads can only wait, never miss.
        if delta is not None:
            for subscriber in tuple(self._delta_subscribers):
                try:
                    subscriber(delta)
                except Exception:  # pragma: no cover - defensive
                    if _obs.ENABLED:
                        _obs.TELEMETRY.count("serve.delta_subscriber_errors")
        # Settle tickets only after the snapshot swap above, so a caller
        # that waited on its ticket reads its own write.
        version = self._applied_seq
        for ticket, value, error in settled:
            ticket._version = version
            if error is not None:
                ticket._reject(error)
            else:
                ticket._resolve(value)

    def _fold_if_due(self, budget: int) -> Optional[float]:
        """Fold the master's stores into one fresh generation when a
        batch left one of them over ``budget`` (the overlay budget, or
        0 for a batch that held a :meth:`fold` or recomputed the
        closure); returns the seconds the fold took (``None`` when none
        was due).  A closure recomputed over a heap the batch changed has
        folded the change already — it comes back as one fresh
        generation the heap is re-founded on — and counts as the fold,
        with a pause of nearly nothing: the recompute is not timed.

        Once per batch, however many facts it held.  Store versions
        survive, so does the lattice, and readers keep the previously
        published snapshot — which shares the *old* generation — until
        the next one is swapped in.
        """
        db = self._db
        published = self._published_state[0].facts
        db.view()       # the closure as the batch left it
        started = time.perf_counter()
        if db.overlay_size > budget:
            db.compact_store()
        elif db.facts.generation is published.generation \
                or db.facts.version == published.version:
            return None
        seconds = time.perf_counter() - started
        self._folds += 1
        self._fold_pause_last = seconds
        self._fold_pause_max = max(self._fold_pause_max, seconds)
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.folds")
            _obs.TELEMETRY.observe("serve.fold_seconds", seconds)
        return seconds

    def _build_snapshot(self) -> Database:
        """Clone the master and pre-warm it so readers never compute.

        Runs only on the writer thread (or in ``__init__`` before it
        starts).  Warming the *master* first means the closure is
        computed once and the snapshot copies the cached result; the
        snapshot's own ``view()`` then just wraps the copied stores.
        The same goes for the generalization lattice: the master's
        ``hierarchy()`` here builds it once when the batch changed a
        ``≺`` fact, the snapshot shares that immutable structure, and
        its ``hierarchy()`` only binds it to the copied store — no
        reader's probe ever builds one.
        """
        self._db.view()
        self._db.hierarchy()
        snap = self._db.snapshot()
        snap.view()
        snap.hierarchy()
        self._publishes += 1
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.snapshot_publishes")
            _obs.TELEMETRY.gauge("serve.snapshot_version", snap.facts.version)
            shape = snap.store_shape()
            _obs.TELEMETRY.gauge(
                "serve.overlay_facts",
                shape["overlay_facts"] + shape["tombstones"])
        return snap

    # ------------------------------------------------------------------
    # Write API
    # ------------------------------------------------------------------
    def _submit(self, kind: str, payload,
                ctx: Optional[TraceContext] = None,
                awaited: bool = False) -> WriteTicket:
        """Queue one operation.  ``awaited`` says the caller blocks on
        the ticket before it can submit anything else."""
        ticket = WriteTicket()
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            if len(self._ops) >= self.max_pending:
                if _obs.ENABLED:
                    _obs.TELEMETRY.count("serve.overloaded")
                raise Overloaded(
                    f"admission queue is full ({self.max_pending} pending"
                    f" writes); retry with backoff")
            self._ops.append((kind, payload, ticket, ctx))
            if not awaited:
                self._pipelined = True
            if _obs.ENABLED:
                _obs.TELEMETRY.gauge("serve.queue_depth", len(self._ops))
            self._has_work.notify()
        return ticket

    def _call(self, kind: str, payload, deadline: Optional[float],
              ctx: Optional[TraceContext] = None):
        """Queue one operation and wait for its outcome."""
        ticket = self._submit(kind, payload, ctx, awaited=True)
        timeout = deadline if deadline is not None else self.default_deadline
        return ticket.result(timeout)

    def add_async(self, new_fact,
                  ctx: Optional[TraceContext] = None) -> WriteTicket:
        """Queue an insertion; returns the ticket immediately."""
        return self._submit("add", _as_fact(new_fact), ctx)

    def remove_async(self, old_fact,
                     ctx: Optional[TraceContext] = None) -> WriteTicket:
        """Queue a removal; returns the ticket immediately."""
        return self._submit("remove", _as_fact(old_fact), ctx)

    def add(self, source: str, relationship: str, target: str,
            deadline: Optional[float] = None,
            ctx: Optional[TraceContext] = None) -> bool:
        """Insert a fact and wait until it is published."""
        return self._call("add", make_fact(source, relationship, target),
                          deadline, ctx)

    def remove(self, source: str, relationship: str, target: str,
               deadline: Optional[float] = None,
               ctx: Optional[TraceContext] = None) -> bool:
        """Remove a fact and wait until the removal is published."""
        return self._call("remove",
                          make_fact(source, relationship, target),
                          deadline, ctx)

    def add_facts_async(self, new_facts: Iterable) -> WriteTicket:
        """Queue a *group* of insertions as one operation.

        Unlike a burst of :meth:`add_async` calls, the group is applied
        inside a single batch, so no published snapshot ever contains a
        proper subset of it — use this when several facts form one
        logical change.  (If a member raises — e.g. an integrity
        violation under ``auto_check`` — earlier members of the group
        stay applied, exactly as separately queued ops would.)  The
        ticket resolves to the number of facts actually added.
        """
        return self._submit(
            "add_many", tuple(_as_fact(f) for f in new_facts))

    def add_facts(self, new_facts: Iterable,
                  deadline: Optional[float] = None) -> int:
        """Insert a group of facts atomically (one batch) and wait;
        returns the number actually added."""
        return self._call(
            "add_many", tuple(_as_fact(f) for f in new_facts), deadline)

    def limit(self, n: Optional[int],
              deadline: Optional[float] = None,
              ctx: Optional[TraceContext] = None) -> Optional[int]:
        """Set the composition limit (the paper's ``limit(n)``)."""
        return self._call("limit", n, deadline, ctx)

    def include(self, rule, deadline: Optional[float] = None,
                ctx: Optional[TraceContext] = None) -> bool:
        """Enable a rule on the master database."""
        return self._call("include", rule, deadline, ctx)

    def exclude(self, rule, deadline: Optional[float] = None,
                ctx: Optional[TraceContext] = None) -> bool:
        """Disable a rule on the master database."""
        return self._call("exclude", rule, deadline, ctx)

    def define_rule(self, name: str, text: str, *,
                    is_constraint: bool = False,
                    deadline: Optional[float] = None,
                    ctx: Optional[TraceContext] = None):
        """Define (and enable) a rule; returns the parsed Rule."""
        return self._call("define_rule", (name, text, is_constraint),
                          deadline, ctx)

    def checkpoint(self, deadline: Optional[float] = None) -> bool:
        """Fold the journal into a fresh on-disk snapshot.

        Runs on the writer thread; readers keep serving the published
        in-memory snapshot throughout.  Requires a durable session.
        """
        if self._session is None:
            raise ServiceError("no durable session attached;"
                               " construct with session=")
        return self._call("checkpoint", None, deadline)

    def fold(self, deadline: Optional[float] = None) -> bool:
        """Fold whatever overlay the stores hold now, without waiting
        for the budget, and publish the result.

        Runs on the writer thread like every fold.  The replica pool
        asks for one when it is constructed over a snapshot that has
        an overlay: what it shares with its workers is always a
        generation the writer made.
        """
        return self._call("fold", None, deadline)

    # ------------------------------------------------------------------
    # Read API (lock-free, snapshot-isolated)
    # ------------------------------------------------------------------
    def _read(self, op: str, fn: Callable[[Database], Any],
              deadline: Optional[float],
              ctx: Optional[TraceContext] = None,
              text: str = "") -> Any:
        if self._closed:
            raise ServiceClosed("service is closed")
        seconds = deadline if deadline is not None else self.default_deadline
        # Atomic ref grab: our isolation.
        return run_read(self._published_state[0], op, fn, seconds, ctx,
                        text, self.slow_query_seconds, self.slow_log.add,
                        replica=False)

    def query(self, query, deadline: Optional[float] = None,
              ctx: Optional[TraceContext] = None):
        """Evaluate a query against the published snapshot."""
        return self._read("query", lambda db: db.query(query), deadline,
                          ctx, str(query))

    def ask(self, query, deadline: Optional[float] = None,
            ctx: Optional[TraceContext] = None) -> bool:
        """Closed-query test against the published snapshot."""
        return self._read("ask", lambda db: db.ask(query), deadline,
                          ctx, str(query))

    def match(self, pattern, deadline: Optional[float] = None,
              ctx: Optional[TraceContext] = None):
        """Template match against the published snapshot."""
        return self._read("match", lambda db: db.match(pattern), deadline,
                          ctx, str(pattern))

    def navigate(self, pattern, deadline: Optional[float] = None,
                 ctx: Optional[TraceContext] = None):
        """Browse one template step against the published snapshot."""
        return self._read("navigate", lambda db: db.navigate(pattern),
                          deadline, ctx, str(pattern))

    def probe(self, query, deadline: Optional[float] = None,
              ctx: Optional[TraceContext] = None):
        """Broadened query (vagueness, §5) against the snapshot."""
        return self._read("probe", lambda db: db.probe(query), deadline,
                          ctx, str(query))

    def read(self, op: str, payload=None, deadline: Optional[float] = None,
             ctx: Optional[TraceContext] = None) -> Any:
        """One read by verb — a key of
        :data:`~repro.serve.replica.READ_OPS` — in the plain-data shape
        a replica worker answers in (``navigate`` rendered, ``probe``
        as ``{"succeeded", "value", "waves"}``): what the pool and the
        TCP layer pass on, so the verbs are spelled out once."""
        return self._read(op, bind_read(op, payload), deadline, ctx,
                          "" if payload is None else str(payload))

    def read_view(self) -> Database:
        """The currently published snapshot (frozen, safe to share).

        Holders keep a consistent point-in-time database even as later
        batches publish newer snapshots.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        return self._published_state[0]

    # ------------------------------------------------------------------
    # Replication (repro.serve.pool)
    # ------------------------------------------------------------------
    def published_state(self) -> Tuple[Database, int]:
        """The published snapshot and its replication sequence, as one
        atomically captured pair.

        The pool bootstraps workers from this: capturing the pair with
        a single reference grab guarantees the captured version really
        describes the captured snapshot, however many batches publish
        concurrently.  Every publish makes a new pair with the next
        sequence number and nothing else does, and every read takes its
        snapshot from this pair, so the sequence names the published
        snapshot: a read that saw the same sequence before and after it
        ran was computed on that sequence's snapshot, and
        ``serve/net.py`` keeps what it derived from one snapshot — its
        encoded answers — only while this returns the same sequence.
        Because the memo keeps the number rather than the pair, the
        publish that retires a snapshot frees it, unless a read is still
        running on it.
        """
        return self._published_state

    @property
    def applied_seq(self) -> int:
        """The replication sequence: published batches so far."""
        return self._published_state[1]

    def subscribe_deltas(self, callback) -> None:
        """Register a delta subscriber (called on the writer thread
        with each published :class:`~repro.serve.replica.Delta`, in
        order, after publication and before ticket settlement).
        Callbacks must be quick and must not raise."""
        with self._lock:
            self._delta_subscribers.append(callback)

    def unsubscribe_deltas(self, callback) -> None:
        """Remove a previously registered delta subscriber."""
        with self._lock:
            if callback in self._delta_subscribers:
                self._delta_subscribers.remove(callback)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service-level counters plus the published snapshot's shape.

        The ``store`` block describes what a publish shares and what it
        copies, summed over the snapshot's base heap and closure store:
        facts in the shared generation, overlay additions and
        tombstones outside it (each store is folded once its own
        additions + tombstones pass ``overlay_budget``), and the
        writer's fold count and pauses.
        """
        snap = self._published_state[0]
        with self._lock:
            pending = len(self._ops)
        store = snap.store_shape()
        store.update({
            "overlay_budget": OVERLAY_BUDGET,
            "folds": self._folds,
            "fold_pause_last_s": round(self._fold_pause_last, 6),
            "fold_pause_max_s": round(self._fold_pause_max, 6),
        })
        return {
            "pending_writes": pending,
            "max_pending": self.max_pending,
            "batch_window": self.batch_window,
            "max_batch": self.max_batch,
            "batches": self._batches,
            "batch_waits": self._batch_waits,
            "ops_applied": self._ops_applied,
            "largest_batch": self._largest_batch,
            "snapshot_publishes": self._publishes,
            "checkpoints": self._checkpoints,
            "checkpoint_failures": self._checkpoint_failures,
            "folds": self._folds,
            "store": store,
            "publish_pause_last_s": round(self._publish_pause_last, 6),
            "publish_pause_max_s": round(self._publish_pause_max, 6),
            "publish_pause_total_s": round(self._publish_pause_total, 6),
            "applied_seq": self.applied_seq,
            "slow_query_seconds": self.slow_query_seconds,
            "slow_queries": self.slow_log.total,
            "published_version": snap.facts.version,
            "base_facts": len(snap.facts),
            "durable": self._session is not None,
            "closed": self._closed,
        }

    def database_stats(self, deadline: Optional[float] = None) -> dict:
        """The snapshot's own :meth:`~repro.db.Database.stats`."""
        return self.read("stats", deadline=deadline)

    def ping(self) -> dict:
        """Cheap liveness probe: snapshot version and fact count."""
        snap = self._published_state[0]
        return {"version": snap.facts.version, "facts": len(snap.facts)}

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        facts = len(self._published_state[0].facts)
        return (f"DatabaseService({state}, facts={facts},"
                f" publishes={self._publishes}, batches={self._batches},"
                f" folds={self._folds})")
