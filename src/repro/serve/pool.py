"""ReplicaPool: multi-process read scaling past the GIL.

The thread-based :class:`~repro.serve.DatabaseService` tops out near
one core of aggregate read throughput — CPython's GIL serializes the
pure-Python evaluators however many reader threads connect.  The pool
breaks that ceiling with the classic replicated-state-machine split:
the service keeps its single writer thread on the *primary*, and N
worker *processes* each hold a :class:`~repro.db.Database` replica,
kept current by the ordered delta log the writer emits after every
published batch (:meth:`DatabaseService.subscribe_deltas`).

One generation lifecycle, driven by the writer::

    fold / recompute ──► share ──► attach ──► unlink
    writer               pool      workers    pool, on the last ack

The pool never builds a generation.  At construction it copies the
published snapshot's base and closure generations into shared memory
(:meth:`GenerationBootstrap.share
<repro.serve.replica.GenerationBootstrap.share>`) and every worker
*attaches* them.  Each published batch then reaches a worker one way:

* a batch whose :class:`~repro.serve.replica.Delta` carries a closure
  half and did not fold is sent as that record, which the worker
  applies as store operations (and which is buffered for workers yet
  to spawn);
* a batch that folded, or that recomputed the closure (a rule or limit
  control, an ``(r, ∈, R_c)`` declaration, an ``auto_check`` rollback:
  ``closure_stats`` is ``None``), makes the pool share the snapshot
  published for it, and workers are sent those generations *instead
  of* the record; the retired segments are unlinked when the last
  live worker has acknowledged the re-attach.

So a worker only applies or attaches — it never runs a rule — and its
overlay, the buffer and a respawn's replay are all bounded by the
budget that makes the writer fold
(:data:`~repro.core.interned.OVERLAY_BUDGET`).  A share that shared
memory refuses is counted (``share_failures``).  After a fold, workers
take that batch as a record, as before.  After a recompute they could
not follow it, so the pool is *behind*: it sends workers nothing and
routes them no read until its next successful share — the writer's
next fold — re-attaches them.

Reads are routed primary first: the primary's published snapshot is
always current and lock-free, so a read that finds no other pool read
in flight there is served from it in the calling thread — no pipe
round trip, no process switch — and the pool costs nothing at
concurrency 1.  A read that finds the primary busy spills to the
workers, round-robin with per-worker inflight accounting (rotate for
fairness, prefer the least-loaded eligible worker).  That a spilled
read is served sooner than one that queues behind the primary's GIL is
the pool's premise and is *not* measured by the repo's benchmark, whose
workloads all have one client; F12 on a 2-core host has the pool behind
the thread-only service at 8 clients (docs/performance.md, ROADMAP
item 6).  Read-your-writes is preserved on both
routes: the primary is current by construction, and a spilled read
carrying a settled :class:`~repro.serve.service.WriteTicket` is only
dispatched to workers whose applied replication sequence has reached
the ticket's; when no replica is fresh enough (or none is alive, or
the pool is behind) the read falls back to the primary as well.  A
crashed worker is detected by its pipe closing, its inflight requests
are retried on the primary, and a replacement is spawned that attaches
the current generations and replays the buffered deltas — a durable
service's workers included: nothing but the primary ever reads the
directory.

Worker metrics are asked for when read: :meth:`ReplicaPool.metrics`
requests a snapshot from every live worker and merges the replies with
the primary's registry; no thread polls in the background.

Example::

    from repro import Database
    from repro.serve import DatabaseService, ReplicaPool

    service = DatabaseService(Database())
    pool = ReplicaPool(service, workers=2)
    try:
        ticket = service.add_async(("BRAHMS", "∈", "COMPOSER"))
        ticket.result(timeout=10.0)
        pool.query("(x, ∈, COMPOSER)", ticket=ticket)  # sees the write
    finally:
        pool.close()
        service.close()
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import (
    DeadlineExceeded,
    ReplicaError,
    ServiceClosed,
    error_class,
)
from ..obs import telemetry as _obs
from ..obs.context import TraceContext
from .replica import Delta, GenerationBootstrap, replica_main
from .service import DatabaseService, WriteTicket

__all__ = ["ReplicaPool"]

#: Per-delta replication latency samples kept for
#: :meth:`ReplicaPool.lag_stats`.
LAG_SAMPLES = 4096


class _Pending:
    """One inflight read: resolved by the worker's receiver thread."""

    __slots__ = ("event", "ok", "value", "extra", "died")

    def __init__(self):
        self.event = threading.Event()
        self.ok = False
        self.value: Any = None
        self.extra: Optional[dict] = None
        self.died = False

    def resolve(self, ok: bool, value: Any,
                extra: Optional[dict] = None) -> None:
        self.ok = ok
        self.value = value
        self.extra = extra
        self.event.set()

    def fail_dead(self) -> None:
        self.died = True
        self.event.set()


class _Worker:
    """Parent-side handle for one replica process."""

    __slots__ = ("index", "generation", "process", "conn", "send_lock",
                 "pending", "applied", "ready", "alive", "start_seq",
                 "receiver", "metrics_snapshot", "metrics_seq",
                 "attached_seq")

    def __init__(self, index: int, generation: int, process, conn,
                 start_seq: int, attached_seq: int):
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.pending: Dict[int, _Pending] = {}
        self.applied = -1          # replication seq; -1 until "ready"
        self.ready = False
        self.alive = True
        self.start_seq = start_seq
        self.receiver: Optional[threading.Thread] = None
        self.metrics_snapshot: Optional[dict] = None
        self.metrics_seq = 0       # metrics snapshots received
        # Sequence of the shared generations this worker maps (or is
        # about to: every later pair is already in its pipe, in order).
        self.attached_seq = attached_seq

    def send(self, message) -> bool:
        """Serialized pipe send; False (not an exception) on a dead
        pipe — the receiver thread owns death handling."""
        try:
            with self.send_lock:
                self.conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False


class ReplicaPool:
    """N process-local read replicas behind one primary service.

    A read is served by the primary's published snapshot when no other
    pool read is in flight there, and by the least-loaded caught-up
    replica otherwise (see the module docstring); ``stats()`` splits
    ``reads`` into ``primary_reads``, ``fallback_reads`` (a replica was
    wanted and none was eligible) and the rest, which workers answered.

    The constructor returns once every worker has attached the shared
    generations and is ready.  It raises
    :class:`~repro.core.errors.ReplicaError`, before any worker is
    spawned, when shared memory cannot hold the generations — such a
    host serves without workers or mounts a larger ``/dev/shm``.

    Args:
        service: the primary.  The pool subscribes to its delta stream;
            writes still go through the service's own API.
        workers: number of replica processes; one that dies is
            replaced.
        start_method: ``multiprocessing`` start method; default picks
            ``fork`` where available (fast spawn/respawn) and falls
            back to ``spawn``.
        read_timeout: default seconds to wait for a worker's answer
            when the read itself carries no deadline.
        ready_timeout: seconds the constructor waits for the workers.
    """

    def __init__(self, service: DatabaseService, workers: int = 2, *,
                 start_method: Optional[str] = None,
                 read_timeout: Optional[float] = 30.0,
                 ready_timeout: float = 60.0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._service = service
        # Generation lifecycle (all under self._lock): the shared pair
        # workers attach, the deltas published since it was shared
        # (replayed by workers that attach later), and pairs a fold
        # replaced that some live worker has yet to let go of.  Behind:
        # a recompute's share was refused, so workers are stale until
        # the next share.
        self._gen: Optional[GenerationBootstrap] = None
        self._gen_log: List[Delta] = []
        self._retired: List[GenerationBootstrap] = []
        self._behind = False
        self.compactions = 0
        self._share_failures = 0
        self.read_timeout = read_timeout
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        # Worker observability follows the parent's.
        self._telemetry = {"metrics": _obs.ENABLED,
                           "slow_query_seconds": service.slow_query_seconds}

        self._lock = threading.RLock()
        self._version_cv = threading.Condition(self._lock)
        self._workers: List[_Worker] = []
        self._closed = False
        self._rotation = 0
        self._rid = itertools.count(1)
        self._generation = itertools.count(1)

        # The primary serves one pool read at a time; a read that finds
        # this held spills to the workers.
        self._primary_slot = threading.Lock()

        # Statistics (under self._lock unless writer-thread-only).
        self._reads = 0
        self._primary_reads = 0
        self._fallback_reads = 0
        self._respawns = 0
        self._deaths = 0
        self._deltas_shipped = 0
        self._delta_emit_times: Dict[int, float] = {}
        self._lag_log: deque = deque(maxlen=LAG_SAMPLES)

        service.subscribe_deltas(self._on_delta)
        try:
            with self._lock:
                shared = self._share_published()
            if not shared:
                # The snapshot has an overlay and only the writer
                # folds: ask it to; the subscriber shares the result.
                service.fold()
                with self._lock:
                    # Still nothing means the subscriber was refused:
                    # sharing again here raises the reason.
                    if self._gen is None and not self._share_published():
                        raise ReplicaError(
                            "the service was written to while the pool"
                            " was being built; build it again")
            with self._lock:
                for index in range(workers):
                    self._workers.append(self._spawn(index))
            self.wait_ready(timeout=ready_timeout)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # The generation lifecycle and the delta stream
    # ------------------------------------------------------------------
    def _share_published(self) -> bool:
        """Share the published snapshot's generations as the pair that
        workers attach (caller holds the pool lock); the pair it
        replaces is retired, to be unlinked once no live worker maps
        it, and the pool is no longer behind.  False, with nothing
        changed, for a snapshot that has an overlay; a refused share
        raises and changes nothing either."""
        fresh = GenerationBootstrap.share(*self._service.published_state())
        if fresh is None:
            return False
        if self._gen is not None:
            self._retired.append(self._gen)
        self._gen, self._gen_log, self._behind = fresh, [], False
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.pool.generation_builds")
        return True

    def _unlink_unmapped(self) -> None:
        """Unlink the retired pairs that no live worker maps or will
        (caller holds the pool lock).  A worker walks the pairs in
        sequence order, so it is done with everything older than the
        one it has acknowledged; a dead worker holds nothing."""
        oldest = min((w.attached_seq for w in self._workers if w.alive),
                     default=None)
        kept = []
        for pair in self._retired:
            if oldest is not None and pair.version >= oldest:
                kept.append(pair)
            else:
                pair.unlink()
        self._retired = kept

    def _spawn(self, index: int) -> _Worker:
        """Start one worker (caller holds the pool lock).

        Capturing the delta suffix and registering the worker for
        delta forwarding happen under the same lock the delta
        subscriber takes, so no delta can fall between the captured
        sequence and the first forwarded record.
        """
        state = dataclasses.replace(self._gen, deltas=tuple(self._gen_log))
        seq = state.deltas[-1].version if state.deltas else state.version
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        generation = next(self._generation)
        process = self._ctx.Process(
            target=replica_main,
            args=(child_conn, state, self._telemetry),
            name=f"repro-replica-{index}-g{generation}", daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(index, generation, process, parent_conn, seq,
                         state.version)
        worker.receiver = threading.Thread(
            target=self._receive_loop, args=(worker,),
            name=f"repro-replica-recv-{index}-g{generation}", daemon=True)
        worker.receiver.start()
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.pool.spawns")
        return worker

    def _on_delta(self, delta: Delta) -> None:
        """Writer-thread subscriber: send every live worker the
        batch's record or, when the batch folded or recomputed the
        closure, the generations of the snapshot published for it —
        or nothing, while the pool is behind."""
        with self._lock:
            if self._closed or (self._gen is not None
                                and delta.version <= self._gen.version):
                return      # the shared pair already holds this batch
            recomputed = delta.closure_stats is None
            if (delta.folded or recomputed) and self._share_folded():
                # The published snapshot is this batch's (subscribers
                # run before the writer takes the next one).
                message = ("generation", self._gen)
            elif self._behind or recomputed:
                # Workers cannot follow a recompute as a record: they
                # wait, unrouted, for the next share to re-attach them.
                self._behind = True
                return
            else:
                message = ("delta", delta)
                if self._gen is not None:
                    # Buffer for future attachers.  The service updates
                    # its published state before invoking subscribers,
                    # so every delta above the shared pair's sequence
                    # lands here before any spawn could need it.
                    self._gen_log.append(delta)
            self._deltas_shipped += 1
            self._delta_emit_times[delta.version] = time.perf_counter()
            if len(self._delta_emit_times) > 2 * LAG_SAMPLES:
                oldest = min(self._delta_emit_times)
                self._delta_emit_times.pop(oldest, None)
            workers = [w for w in self._workers if w.alive]
        for worker in workers:
            if delta.version > worker.start_seq:
                worker.send(message)

    def _share_folded(self) -> bool:
        """Share the snapshot the writer just published after a fold
        or a recompute (writer thread, pool lock held).  A refused
        share — shared memory is full — is counted and survived: the
        primary answers as always, and the next fold tries again."""
        try:
            shared = self._share_published()
        except (ReplicaError, OSError):
            shared = False
            self._share_failures += 1
            if _obs.ENABLED:
                _obs.TELEMETRY.count("serve.pool.share_failures")
        if shared:
            self.compactions += 1
            if _obs.ENABLED:
                _obs.TELEMETRY.count("serve.pool.compactions")
        return shared

    def _receive_loop(self, worker: _Worker) -> None:
        """Per-worker receiver: acks, read results, death detection."""
        conn = worker.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "ready":
                with self._version_cv:
                    worker.applied = message[1]
                    worker.ready = True
                    self._version_cv.notify_all()
            elif kind in ("applied", "reattached"):
                version = message[1]
                with self._version_cv:
                    if version > worker.applied:
                        worker.applied = version
                    emitted = self._delta_emit_times.get(version)
                    if emitted is not None:
                        lag = time.perf_counter() - emitted
                        self._lag_log.append(lag)
                        if _obs.ENABLED:
                            _obs.TELEMETRY.observe(
                                "serve.pool.lag_seconds", lag)
                    if kind == "reattached":
                        # The worker let go of the pair it had: the
                        # last live one to say so frees the segments.
                        worker.attached_seq = version
                        self._unlink_unmapped()
                    self._version_cv.notify_all()
            elif kind == "result":
                rid, ok, value, version, extra = message[1:]
                with self._version_cv:
                    if version > worker.applied:
                        worker.applied = version
                    pending = worker.pending.pop(rid, None)
                    self._version_cv.notify_all()
                if pending is not None:
                    pending.resolve(ok, value, extra)
            elif kind == "metrics":
                with self._version_cv:
                    if message[1] > worker.applied:
                        worker.applied = message[1]
                    worker.metrics_snapshot = message[2]
                    worker.metrics_seq += 1
                    self._version_cv.notify_all()
        self._on_worker_death(worker)

    def _on_worker_death(self, worker: _Worker) -> None:
        with self._lock:
            was_alive = worker.alive
            worker.alive = False
            worker.ready = False
            stranded = list(worker.pending.values())
            worker.pending.clear()
            closed = self._closed
            if not closed:
                # A dead worker has acknowledged everything.
                self._unlink_unmapped()
            if was_alive and not closed:
                self._deaths += 1
                if _obs.ENABLED:
                    _obs.TELEMETRY.count("serve.pool.worker_deaths")
        for pending in stranded:
            pending.fail_dead()
        try:
            worker.conn.close()
        except OSError:
            pass
        if closed or not was_alive:
            return
        # Respawn on a fresh thread so this receiver can exit; the
        # replacement attaches the *current* shared generations and
        # replays the deltas buffered since, not from where the dead
        # worker had gotten to.
        threading.Thread(target=self._respawn_slot,
                         args=(worker.index, worker.generation),
                         name=f"repro-replica-respawn-{worker.index}",
                         daemon=True).start()

    def _respawn_slot(self, index: int, dead_generation: int) -> None:
        try:
            with self._lock:
                if self._closed:
                    return
                current = self._workers[index]
                if current.alive or current.generation != dead_generation:
                    return   # someone already replaced this slot
                self._workers[index] = self._spawn(index)
                self._respawns += 1
                if _obs.ENABLED:
                    _obs.TELEMETRY.count("serve.pool.respawns")
        except Exception:  # pragma: no cover - defensive
            if _obs.ENABLED:
                _obs.TELEMETRY.count("serve.pool.respawn_failures")

    # ------------------------------------------------------------------
    # Metrics, asked for when read
    # ------------------------------------------------------------------
    def worker_metrics(self) -> List[dict]:
        """Per-worker state: index, liveness, applied version, inflight
        count, and the snapshot the last :meth:`metrics` call got."""
        with self._lock:
            return [{"index": w.index, "alive": w.alive,
                     "applied": w.applied, "inflight": len(w.pending),
                     "metrics": w.metrics_snapshot}
                    for w in self._workers]

    def metrics(self, timeout: float = 2.0) -> dict:
        """The pool-wide metrics view: the primary process's registry
        merged with a snapshot asked of every live worker now
        (:func:`repro.obs.telemetry.merge_snapshots`) — counters add,
        histogram buckets add, so ``serve.request_seconds.query`` here
        is the latency distribution across the whole pool.  Best
        effort: a worker that dies or does not reply within
        ``timeout`` seconds contributes the last snapshot it sent."""
        with self._lock:
            targets = [(w, w.metrics_seq) for w in self._workers if w.alive]
        for worker, _ in targets:
            worker.send(("metrics_request",))
        self._wait(lambda: all(worker.metrics_seq > seq or not worker.alive
                               for worker, seq in targets), timeout)
        snapshots = [_obs.active_telemetry().snapshot()]
        with self._lock:
            snapshots.extend(w.metrics_snapshot for w in self._workers
                             if w.metrics_snapshot)
        return _obs.merge_snapshots(snapshots)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick(self, min_version: int) -> Optional[_Worker]:
        """Round-robin with inflight accounting (caller holds lock):
        rotate the starting slot for fairness, then take the eligible
        worker with the fewest inflight reads (rotation order breaks
        ties).  Eligible = alive, ready, applied ≥ ``min_version``; none
        is while the pool is behind."""
        count = len(self._workers)
        if not count or self._behind:
            return None
        start = self._rotation
        self._rotation = (self._rotation + 1) % count
        best: Optional[_Worker] = None
        for offset in range(count):
            worker = self._workers[(start + offset) % count]
            if not (worker.alive and worker.ready
                    and worker.applied >= min_version):
                continue
            if best is None or len(worker.pending) < len(best.pending):
                best = worker
        return best

    def _min_version(self, ticket: Optional[WriteTicket],
                     deadline: Optional[float],
                     floor: int) -> int:
        if ticket is None:
            return floor
        if ticket.version is None:
            # Unsettled ticket: "read after this write" means the
            # write must land first — wait for it (same semantics as
            # service.add itself).
            ticket.result(deadline if deadline is not None
                          else self.read_timeout)
        return max(floor, ticket.version or 0)

    def read(self, op: str, payload, deadline: Optional[float] = None,
             ticket: Optional[WriteTicket] = None,
             min_version: int = 0,
             ctx: Optional[TraceContext] = None) -> Tuple[Any, bool]:
        """Serve one read operation (a key of
        :data:`~repro.serve.replica.READ_OPS`); returns ``(answer,
        by_primary)``.  ``by_primary`` says the primary computed the
        answer on its published snapshot — what a caller that keeps
        answers per snapshot (``serve/net.py``) must know, since a
        worker's may be from an older one."""
        if self._closed:
            raise ServiceClosed("replica pool is closed")
        min_version = self._min_version(ticket, deadline, min_version)
        if ctx is None:
            return self._route_read(op, payload, deadline,
                                    min_version, None, None)
        with ctx.span("pool.read", role="pool", op=op) as span:
            return self._route_read(op, payload, deadline,
                                    min_version, ctx, span)

    def _route_read(self, op: str, payload, deadline: Optional[float],
                    min_version: int, ctx: Optional[TraceContext],
                    span) -> Tuple[Any, bool]:
        """Primary first, workers when it is busy."""
        # "stats" describes a replica (the primary's are
        # service.database_stats()), so it always goes to one.
        if op == "stats" \
                or not self._primary_slot.acquire(blocking=False):
            with self._lock:
                self._reads += 1
            return self._dispatch_read(op, payload, deadline,
                                       min_version, ctx, span)
        # Released however the read ends — answer, typed error or
        # exceeded deadline — or every later read would spill.
        try:
            with self._lock:
                self._reads += 1
                self._primary_reads += 1
            if _obs.ENABLED:
                _obs.TELEMETRY.count("serve.pool.primary_reads")
            return self._service.read(op, payload, deadline, ctx), True
        finally:
            self._primary_slot.release()

    def _dispatch_read(self, op: str, payload, deadline: Optional[float],
                       min_version: int, ctx: Optional[TraceContext],
                       span) -> Tuple[Any, bool]:
        with self._lock:
            worker = self._pick(min_version)
            if worker is not None:
                rid = next(self._rid)
                pending = _Pending()
                worker.pending[rid] = pending
        if span is not None and worker is not None:
            span.attributes["worker"] = worker.index
        if worker is None or not worker.send(
                ("read", rid, op, payload, deadline,
                 ctx.wire() if ctx is not None else None)):
            if worker is not None:
                with self._lock:
                    worker.pending.pop(rid, None)
            return self._fallback(op, payload, deadline, ctx)
        timeout = deadline if deadline is not None else self.read_timeout
        if not pending.event.wait(timeout):
            with self._lock:
                worker.pending.pop(rid, None)
            if _obs.ENABLED:
                _obs.TELEMETRY.count("serve.pool.read_timeouts")
            raise DeadlineExceeded(
                f"replica did not answer {op!r} within {timeout}s")
        if pending.died:
            # The worker died mid-request; the primary always has the
            # answer.
            return self._fallback(op, payload, deadline, ctx)
        self._consume_extra(pending.extra, ctx)
        if not pending.ok:
            name, text = pending.value
            raise error_class(name)(text)
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.pool.replica_reads")
        return pending.value, False

    def _consume_extra(self, extra: Optional[dict],
                       ctx: Optional[TraceContext]) -> None:
        """Fold a result's telemetry payload into the parent side:
        worker spans into the request's trace, worker slow-query
        records into the primary's slow log."""
        if not extra:
            return
        spans = extra.get("spans")
        if spans and ctx is not None:
            ctx.absorb(spans)
        slow = extra.get("slow")
        if slow:
            self._service.slow_log.add(slow)

    def _fallback(self, op: str, payload, deadline: Optional[float],
                  ctx: Optional[TraceContext] = None) -> Tuple[Any, bool]:
        """A replica was wanted and none could answer (none caught up
        to ``min_version``, none alive, or it died mid-request): the
        primary always can."""
        with self._lock:
            self._fallback_reads += 1
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.pool.fallback_reads")
        return self._service.read(op, payload, deadline, ctx), True

    # ------------------------------------------------------------------
    # Read API (mirrors the service; ticket= adds read-your-writes)
    # ------------------------------------------------------------------
    def query(self, query: str, deadline: Optional[float] = None,
              ticket: Optional[WriteTicket] = None,
              min_version: int = 0,
              ctx: Optional[TraceContext] = None):
        """Evaluate a query (set of tuples)."""
        return self.read("query", query, deadline, ticket, min_version,
                         ctx)[0]

    def ask(self, query: str, deadline: Optional[float] = None,
            ticket: Optional[WriteTicket] = None,
            min_version: int = 0,
            ctx: Optional[TraceContext] = None) -> bool:
        """Closed-query truth test."""
        return self.read("ask", query, deadline, ticket, min_version,
                         ctx)[0]

    def match(self, pattern: str, deadline: Optional[float] = None,
              ticket: Optional[WriteTicket] = None,
              min_version: int = 0,
              ctx: Optional[TraceContext] = None):
        """Template match (list of facts)."""
        return self.read("match", pattern, deadline, ticket, min_version,
                         ctx)[0]

    def navigate(self, pattern: str, deadline: Optional[float] = None,
                 ticket: Optional[WriteTicket] = None,
                 min_version: int = 0,
                 ctx: Optional[TraceContext] = None) -> str:
        """One browsing step, as rendered text."""
        return self.read("navigate", pattern, deadline, ticket,
                         min_version, ctx)[0]

    def try_(self, entity: str, deadline: Optional[float] = None,
             ticket: Optional[WriteTicket] = None,
             min_version: int = 0,
             ctx: Optional[TraceContext] = None):
        """The paper's ``try`` operator."""
        return self.read("try", entity, deadline, ticket, min_version,
                         ctx)[0]

    def probe(self, query: str, deadline: Optional[float] = None,
              ticket: Optional[WriteTicket] = None,
              min_version: int = 0,
              ctx: Optional[TraceContext] = None) -> dict:
        """Broadened query: ``{"succeeded", "value", "waves"}``."""
        return self.read("probe", query, deadline, ticket, min_version,
                         ctx)[0]

    def database_stats(self, deadline: Optional[float] = None,
                       min_version: int = 0,
                       ctx: Optional[TraceContext] = None) -> dict:
        """A replica's :meth:`~repro.db.Database.stats` — always asked
        of a worker, never routed to the primary first."""
        return self.read("stats", None, deadline, None, min_version, ctx)[0]

    # ------------------------------------------------------------------
    # Introspection and control
    # ------------------------------------------------------------------
    def _wait(self, done, timeout: Optional[float]) -> bool:
        """Block until ``done()`` — evaluated under the pool lock, after
        every worker message — holds; False once ``timeout`` seconds
        pass first (``None`` waits for good)."""
        limit = None if timeout is None else time.monotonic() + timeout
        with self._version_cv:
            while not done():
                remaining = (None if limit is None
                             else limit - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._version_cv.wait(remaining
                                      if remaining is not None else 1.0)
        return True

    def _alive_applied(self) -> List[int]:
        return [w.applied for w in self._workers if w.alive]

    def wait_ready(self, timeout: Optional[float] = 60.0) -> None:
        """Block until every live worker has attached and is ready."""
        def ready() -> bool:
            alive = [w for w in self._workers if w.alive]
            return bool(alive) and all(w.ready for w in alive)

        if not self._wait(ready, timeout):
            raise ReplicaError("replica workers did not become ready in time")

    def wait_for_version(self, version: int, *, all_workers: bool = False,
                         timeout: Optional[float] = 30.0) -> None:
        """Block until one (or every) live worker has applied
        ``version`` — the replication-lag barrier used by tests and
        the failover benchmark."""
        def reached() -> bool:
            applied = self._alive_applied()
            return bool(applied) and (
                min(applied) if all_workers else max(applied)) >= version

        if not self._wait(reached, timeout):
            raise DeadlineExceeded(
                f"replicas did not reach version {version}"
                f" in time (applied: {self._alive_applied()})")

    def crash_worker(self, index: int) -> None:
        """Hard-kill one worker (failover tests and benchmarks): the
        process exits without cleanup, the pool detects the broken
        pipe, fails inflight reads over to the primary, and respawns."""
        with self._lock:
            worker = self._workers[index]
        worker.send(("crash",))

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Pool-level counters plus per-worker applied versions/lag."""
        with self._lock:
            primary = self._service.applied_seq
            applied = [w.applied if w.alive else None
                       for w in self._workers]
            inflight = [len(w.pending) for w in self._workers]
            alive = sum(1 for w in self._workers if w.alive)
            live_applied = [v for v in applied if v is not None]
            return {
                "workers": len(self._workers),
                "alive": alive,
                "start_method": self.start_method,
                "primary_version": primary,
                "applied_versions": applied,
                "max_lag": (primary - min(live_applied)
                            if live_applied else None),
                "inflight": inflight,
                "reads": self._reads,
                "primary_reads": self._primary_reads,
                "fallback_reads": self._fallback_reads,
                "deltas_shipped": self._deltas_shipped,
                "worker_deaths": self._deaths,
                "respawns": self._respawns,
                "worker_metrics_received": sum(
                    w.metrics_seq for w in self._workers),
                "closed": self._closed,
                "generation_seq": (self._gen.version
                                   if self._gen is not None else None),
                "generation_log": len(self._gen_log),
                "retired_segments": sum(len(pair.segment_names())
                                        for pair in self._retired),
                "compactions": self.compactions,
                "share_failures": self._share_failures,
                "behind": self._behind,
            }

    def lag_stats(self) -> dict:
        """Replication-lag distribution: seconds from delta emission on
        the writer thread to a worker's applied ack."""
        with self._lock:
            samples = sorted(self._lag_log)
        if not samples:
            return {"samples": 0}

        def pct(fraction: float) -> float:
            index = min(len(samples) - 1, int(fraction * len(samples)))
            return samples[index]

        return {
            "samples": len(samples),
            "p50_s": pct(0.50),
            "p95_s": pct(0.95),
            "p99_s": pct(0.99),
            "max_s": samples[-1],
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker and detach from the delta stream."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        self._service.unsubscribe_deltas(self._on_delta)
        for worker in workers:
            worker.send(("stop",))
        deadline_at = time.monotonic() + timeout
        for worker in workers:
            remaining = max(0.1, deadline_at - time.monotonic())
            worker.process.join(remaining)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            stranded = list(worker.pending.values())
            worker.pending.clear()
            for pending in stranded:
                pending.fail_dead()
        # Workers are gone: the shared generation segments (the current
        # pair plus any a fold retired) have no readers left and must
        # be unlinked here, or they outlive the pool in /dev/shm.
        with self._lock:
            pairs, self._retired = self._retired, []
            if self._gen is not None:
                pairs.append(self._gen)
                self._gen = None
        for pair in pairs:
            pair.unlink()

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        alive = sum(1 for w in self._workers if w.alive)
        return (f"ReplicaPool({state}, workers={len(self._workers)},"
                f" alive={alive}, start_method={self.start_method})")
