"""ReplicaPool: multi-process read scaling past the GIL.

The thread-based :class:`~repro.serve.DatabaseService` tops out near
one core of aggregate read throughput — CPython's GIL serializes the
pure-Python evaluators however many reader threads connect.  The pool
breaks that ceiling with the classic replicated-state-machine split:
the service keeps its single writer thread on the *primary*, and N
worker *processes* each hold a full :class:`~repro.db.Database`
replica, kept current by the ordered delta log the writer emits after
every published batch (:meth:`DatabaseService.subscribe_deltas`).
Replicas apply deltas through the database's incremental maintenance —
insertion extension and Delete/Rederive — so the replica hot path
never recomputes a closure from scratch.

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
the ticket's; when no replica is fresh enough (or none is alive) the
read falls back to the primary as well.  A crashed worker is detected
by its pipe closing,
its inflight requests are retried on the primary, and a replacement is
respawned and bootstrapped from the current published snapshot (or
from the durable directory's journal/checkpoint when one was given).

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
from .replica import (
    BootstrapState,
    Delta,
    GenerationBootstrap,
    capture_bootstrap,
    replica_main,
)
from .service import DatabaseService, WriteTicket

__all__ = ["ReplicaPool"]

#: Maximum deltas buffered for generation-bootstrap replay.  Past this,
#: a respawning worker would spend longer replaying than attaching —
#: the pool marks the generation stale and rebuilds it at next spawn.
GENERATION_LOG_CAP = 512


class _SharedGenerations:
    """One published pair of shared columnar generations (base heap +
    standard closure) and everything needed to ship or retire them.

    Owned by the pool (the creating process): workers only ever attach.
    ``seq`` is the replication sequence the generations reflect.
    """

    __slots__ = ("base_gen", "base_handle", "closure_gen",
                 "closure_handle", "closure_stats", "seq",
                 "store_version", "closure_version")

    def __init__(self, base_gen, base_handle, closure_gen,
                 closure_handle, closure_stats, seq,
                 store_version, closure_version):
        self.base_gen = base_gen
        self.base_handle = base_handle
        self.closure_gen = closure_gen
        self.closure_handle = closure_handle
        self.closure_stats = closure_stats
        self.seq = seq
        self.store_version = store_version
        self.closure_version = closure_version

    def segment_names(self) -> List[str]:
        names = [self.base_handle.name]
        if self.closure_handle is not None:
            names.append(self.closure_handle.name)
        return names

    def release(self) -> None:
        """Unmap the pool's own views of the segments.  Built-then-shared
        generations keep their process-local arrays, so a generation
        borrowed from a live snapshot store stays usable after this."""
        self.base_gen.close()
        if self.closure_gen is not None:
            self.closure_gen.close()


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
                 "gen_acks")

    def __init__(self, index: int, generation: int, process, conn,
                 start_seq: int):
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
        self.metrics_seq = 0       # heartbeat snapshots received
        self.gen_acks = 0          # generation re-attach acks received

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

    Args:
        service: the primary.  The pool subscribes to its delta stream;
            writes still go through the service's own API.
        workers: number of replica processes.
        start_method: ``multiprocessing`` start method; default picks
            ``fork`` where available (fast spawn/respawn) and falls
            back to ``spawn``.
        bootstrap: how workers receive the primary's state.
            ``"generation"`` (the default) builds one shared-memory
            columnar generation pair — base heap plus computed standard
            closure (:mod:`repro.core.interned`) — and ships each
            worker a *handle* (segment name + layout) to attach, plus
            the delta suffix published since the generation was built;
            bootstrap cost and per-worker memory are then independent
            of heap size.  ``"state"`` ships a pickled
            :class:`BootstrapState` (the PR-4 behavior; every worker
            copies and re-indexes the full heap and recomputes the
            closure).  ``"directory"`` replays the durable directory —
            selected automatically when ``bootstrap_directory`` is
            given.
        bootstrap_directory: when the service is durable, workers can
            bootstrap by replaying the directory's snapshot + journal
            themselves instead of receiving the fact heap over the
            pipe (rule configuration still ships — it is not
            journaled).  Delta application is idempotent, so the disk
            being slightly ahead of the captured sequence is harmless.
        respawn: automatically replace crashed workers.
        read_timeout: default seconds to wait for a worker's answer
            when the read itself carries no deadline.
        wait_ready: block the constructor until every worker has built
            its replica and warmed its closure.
        lag_samples: how many per-delta replication latency samples to
            retain for :meth:`lag_stats`.
        telemetry: worker observability config, shipped at spawn:
            ``{"metrics": bool, "slow_query_seconds": float|None}``.
            ``None`` derives it from the parent — metrics enabled iff
            the parent's telemetry is enabled at spawn time, slow
            threshold copied from the service.
        heartbeat_interval: seconds between ``metrics_request``
            heartbeats to workers (their snapshots feed
            :meth:`metrics`).  ``None`` (default) starts a heartbeat
            only when worker metrics are on, every 2 s; pass ``0`` to
            disable the background heartbeat entirely
            (:meth:`refresh_metrics` still works on demand).
    """

    def __init__(self, service: DatabaseService, workers: int = 2, *,
                 start_method: Optional[str] = None,
                 bootstrap: Optional[str] = None,
                 bootstrap_directory: Optional[str] = None,
                 respawn: bool = True,
                 read_timeout: Optional[float] = 30.0,
                 wait_ready: bool = True,
                 ready_timeout: float = 60.0,
                 lag_samples: int = 4096,
                 telemetry: Optional[dict] = None,
                 heartbeat_interval: Optional[float] = None,
                 compact_after: Optional[int] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if compact_after is not None and compact_after < 1:
            raise ValueError("compact_after must be >= 1")
        self._service = service
        self._bootstrap_directory = bootstrap_directory
        if bootstrap is None:
            bootstrap = ("directory" if bootstrap_directory is not None
                         else "generation")
        if bootstrap not in ("generation", "state", "directory"):
            raise ValueError(f"unknown bootstrap mode: {bootstrap!r}")
        if bootstrap == "directory" and bootstrap_directory is None:
            raise ValueError(
                "bootstrap='directory' requires bootstrap_directory")
        self.bootstrap = bootstrap
        # Shared-generation state (all under self._lock): the current
        # generation pair, the delta suffix published since it was
        # built (replayed by attaching workers), and segment names
        # retired by compaction but not yet safe to unlink.
        self._gen: Optional[_SharedGenerations] = None
        self._gen_log: List[Delta] = []
        self._gen_stale = False
        self._retired_segments: List[str] = []
        # Auto-compaction: once the delta-replay buffer holds this many
        # entries, a background thread folds them into a fresh shared
        # generation (``compact_generation``).  ``None`` disables.
        self.compact_after = compact_after
        self.compactions = 0
        self._compacting = False
        self._compact_thread: Optional[threading.Thread] = None
        self._respawn = respawn
        self.read_timeout = read_timeout
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        if telemetry is None:
            telemetry = {"metrics": _obs.ENABLED,
                         "slow_query_seconds": service.slow_query_seconds}
        self._telemetry = telemetry
        if heartbeat_interval is None:
            heartbeat_interval = 2.0 if telemetry.get("metrics") else 0.0
        self.heartbeat_interval = heartbeat_interval
        self._heartbeat_stop = threading.Event()
        self._heartbeat: Optional[threading.Thread] = None

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
        self._lag_log: deque = deque(maxlen=lag_samples)

        service.subscribe_deltas(self._on_delta)
        try:
            with self._lock:
                for index in range(workers):
                    self._workers.append(self._spawn(index))
            if wait_ready:
                self.wait_ready(timeout=ready_timeout)
        except BaseException:
            self.close()
            raise
        if self.heartbeat_interval and self.heartbeat_interval > 0:
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop, name="repro-pool-heartbeat",
                daemon=True)
            self._heartbeat.start()

    # ------------------------------------------------------------------
    # Spawning and the delta stream
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        """Start one worker (caller holds the pool lock).

        Capturing the bootstrap state and registering the worker for
        delta forwarding happen under the same lock the delta
        subscriber takes, so no delta can fall between the captured
        sequence and the first forwarded record; the worker-side
        ``version > bootstrapped`` guard drops any overlap.
        """
        if self.bootstrap == "generation":
            state = self._generation_bootstrap()
            seq = (state.deltas[-1].version if state.deltas
                   else state.version)
            payload = ("generation", state)
            return self._start_worker(index, payload, seq)
        snap, seq = self._service.published_state()
        config = capture_bootstrap(snap, version=seq)
        if self._bootstrap_directory is not None:
            # Facts replay from disk; configuration (not journaled)
            # ships explicitly.  Strip the heap from the shipped state.
            payload = ("directory", str(self._bootstrap_directory),
                       BootstrapState(facts=[], rules=config.rules,
                                      enabled=config.enabled,
                                      composition_limit=(
                                          config.composition_limit),
                                      engine=config.engine,
                                      version=seq))
        else:
            payload = ("state", config)
        return self._start_worker(index, payload, seq)

    def _start_worker(self, index: int, payload, seq: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        generation = next(self._generation)
        process = self._ctx.Process(
            target=replica_main,
            args=(child_conn, payload, self._telemetry),
            name=f"repro-replica-{index}-g{generation}", daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(index, generation, process, parent_conn, seq)
        worker.receiver = threading.Thread(
            target=self._receive_loop, args=(worker,),
            name=f"repro-replica-recv-{index}-g{generation}", daemon=True)
        worker.receiver.start()
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.pool.spawns")
        return worker

    def _build_generations(self) -> _SharedGenerations:
        """Build and share a fresh generation pair from the current
        published snapshot (caller holds the pool lock).

        When the primary's heap is already interned with an empty
        overlay (``Database.compact_store()``), its existing generation
        is shared directly — no rebuild; otherwise the snapshot's facts
        are interned and indexed here, once, for every worker that will
        ever attach.  The closure generation ships whenever the
        snapshot has a computed standard closure (the service warms it
        before publishing), letting workers skip closure recomputation.
        """
        from ..core.interned import ColumnarGeneration, InternedFactStore

        snap, seq = self._service.published_state()
        base_store = snap.facts
        base_gen = None
        if isinstance(base_store, InternedFactStore) \
                and not base_store.overlay_size \
                and base_store.generation is not None \
                and base_store.generation.shared_name is None:
            base_gen = base_store.generation
        if base_gen is None:
            base_gen = ColumnarGeneration.build(
                base_store, version=base_store.version)
        base_handle = base_gen.share()
        closure_gen = closure_handle = closure_stats = None
        closure_version = None
        result = snap._standard_result  # noqa: SLF001 - frozen snapshot
        if result is not None:
            closure_store = result.store
            if isinstance(closure_store, InternedFactStore) \
                    and not closure_store.overlay_size \
                    and closure_store.generation is not None \
                    and closure_store.generation.shared_name is None:
                closure_gen = closure_store.generation
            else:
                closure_gen = ColumnarGeneration.build(
                    closure_store, version=closure_store.version)
            closure_handle = closure_gen.share()
            closure_version = closure_store.version
            closure_stats = {
                "base_count": result.base_count,
                "derived_count": result.derived_count,
                "iterations": result.iterations,
                "rule_firings": dict(result.rule_firings),
                "rule_times": dict(result.rule_times),
            }
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.pool.generation_builds")
        return _SharedGenerations(
            base_gen, base_handle, closure_gen, closure_handle,
            closure_stats, seq, base_store.version, closure_version)

    def _generation_bootstrap(self) -> GenerationBootstrap:
        """The bootstrap payload for one attaching worker (caller holds
        the pool lock): current generation handles plus the delta
        suffix published since the generation was built."""
        if self._gen is None or self._gen_stale:
            if self._gen is not None:
                # Too many buffered deltas: retire the old pair.  Live
                # workers may still be attached, so the segments are
                # only unlinked once every worker has re-attached
                # (compact_generation) or at close().
                self._retired_segments.extend(self._gen.segment_names())
                self._gen.release()
            self._gen = self._build_generations()
            self._gen_log = []
            self._gen_stale = False
        gen = self._gen
        # Configuration only — never the fact list (that is the point).
        snap, _seq = self._service.published_state()
        return GenerationBootstrap(
            base_handle=gen.base_handle,
            closure_handle=gen.closure_handle,
            closure_stats=gen.closure_stats,
            rules=snap.rules.all_rules(),
            enabled=snap.rules.snapshot_state(),
            composition_limit=snap.composition_limit,
            engine=snap.engine,
            version=gen.seq,
            deltas=tuple(self._gen_log),
            store_version=gen.store_version,
            closure_version=gen.closure_version,
        )

    def _on_delta(self, delta: Delta) -> None:
        """Writer-thread subscriber: forward to every live worker."""
        with self._lock:
            if self._closed:
                return
            self._deltas_shipped += 1
            if self._gen is not None and not self._gen_stale \
                    and delta.version > self._gen.seq:
                # Buffer for future attachers.  The service updates its
                # published state before invoking subscribers, so every
                # delta above the generation's sequence lands here
                # before any spawn could need it.
                self._gen_log.append(delta)
                if len(self._gen_log) > GENERATION_LOG_CAP:
                    # Replay would cost more than a rebuild: rebuild at
                    # the next spawn (or compact_generation) instead.
                    self._gen_log = []
                    self._gen_stale = True
                elif (self.compact_after is not None
                        and not self._compacting
                        and self.bootstrap == "generation"
                        and len(self._gen_log) >= self.compact_after):
                    # Fold the buffer in the background — the writer
                    # thread must keep shipping deltas, never block on
                    # re-attach acks.
                    self._compacting = True
                    self._compact_thread = threading.Thread(
                        target=self._autocompact,
                        name="repro-pool-compact", daemon=True)
                    self._compact_thread.start()
            self._delta_emit_times[delta.version] = time.perf_counter()
            if len(self._delta_emit_times) > 2 * self._lag_log.maxlen:
                oldest = min(self._delta_emit_times)
                self._delta_emit_times.pop(oldest, None)
            workers = [w for w in self._workers if w.alive]
        for worker in workers:
            if delta.version > worker.start_seq:
                worker.send(("delta", delta))

    def _autocompact(self) -> None:
        """Background delta-log fold (``compact_after`` trigger).  A
        close() racing the fold surfaces as ``ServiceClosed`` — the
        buffered deltas die with the pool, nothing to save."""
        try:
            self.compact_generation()
        except (ServiceClosed, ValueError):
            pass
        finally:
            self._compacting = False

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
            elif kind == "reattached":
                with self._version_cv:
                    if message[1] > worker.applied:
                        worker.applied = message[1]
                    worker.gen_acks += 1
                    self._version_cv.notify_all()
            elif kind in ("applied", "pong"):
                version = message[1]
                with self._version_cv:
                    if version > worker.applied:
                        worker.applied = version
                    emitted = self._delta_emit_times.get(version)
                    if emitted is not None and kind == "applied":
                        lag = time.perf_counter() - emitted
                        self._lag_log.append(lag)
                        if _obs.ENABLED:
                            _obs.TELEMETRY.observe(
                                "serve.pool.lag_seconds", lag)
                    self._version_cv.notify_all()
            elif kind == "result":
                rid, ok, value, version = message[1:5]
                extra = message[5] if len(message) > 5 else None
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
        if closed or not self._respawn or not was_alive:
            return
        # Respawn on a fresh thread so this receiver can exit; the
        # replacement bootstraps from the *current* published snapshot
        # (or the durable directory), not from where the dead worker
        # had gotten to.
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
    # Metrics heartbeat
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        """Periodically ask every live worker for a metrics snapshot.

        The replies land asynchronously in the receiver threads, so a
        heartbeat never blocks reads; :meth:`metrics` merges whatever
        snapshots have most recently arrived.
        """
        while not self._heartbeat_stop.wait(self.heartbeat_interval):
            with self._lock:
                if self._closed:
                    return
                workers = [w for w in self._workers if w.alive]
            for worker in workers:
                worker.send(("metrics_request",))

    def refresh_metrics(self, timeout: float = 2.0) -> bool:
        """Request a fresh snapshot from every live worker and wait
        (up to ``timeout``) for the replies — best effort: a worker
        that dies mid-request is simply skipped.  Returns whether
        every surviving target replied within the timeout."""
        with self._lock:
            targets = [(w, w.metrics_seq)
                       for w in self._workers if w.alive]
        for worker, _ in targets:
            worker.send(("metrics_request",))
        limit = time.monotonic() + timeout
        with self._version_cv:
            while True:
                if all(worker.metrics_seq > seq or not worker.alive
                       for worker, seq in targets):
                    return True
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    return False
                self._version_cv.wait(remaining)

    def worker_metrics(self) -> List[dict]:
        """Per-worker heartbeat state: index, liveness, applied
        version, inflight count, and the latest shipped snapshot."""
        with self._lock:
            return [{"index": w.index, "alive": w.alive,
                     "applied": w.applied, "inflight": len(w.pending),
                     "metrics": w.metrics_snapshot}
                    for w in self._workers]

    def metrics(self, refresh: bool = False, timeout: float = 2.0) -> dict:
        """The pool-wide metrics view: the primary process's registry
        merged with every worker's latest heartbeat snapshot
        (:func:`repro.obs.telemetry.merge_snapshots`) — counters add,
        histogram buckets add, so ``serve.request_seconds.query`` here
        is the latency distribution across the whole pool."""
        if refresh:
            self.refresh_metrics(timeout)
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
        ties).  Eligible = alive, ready, applied ≥ ``min_version``."""
        count = len(self._workers)
        if not count:
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

    def _read(self, op: str, payload, deadline: Optional[float],
              ticket: Optional[WriteTicket],
              min_version: int = 0,
              ctx: Optional[TraceContext] = None) -> Any:
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
                    span) -> Any:
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
            return self._on_primary(op, payload, deadline, ctx)
        finally:
            self._primary_slot.release()

    def _dispatch_read(self, op: str, payload, deadline: Optional[float],
                       min_version: int, ctx: Optional[TraceContext],
                       span) -> Any:
        with self._lock:
            worker = self._pick(min_version)
            if worker is not None:
                rid = next(self._rid)
                pending = _Pending()
                worker.pending[rid] = pending
        if span is not None and worker is not None:
            span.attributes["worker"] = worker.index
        if ctx is None:
            message = ("read", rid, op, payload, deadline) \
                if worker is not None else None
        else:
            message = ("read", rid, op, payload, deadline, ctx.wire()) \
                if worker is not None else None
        if worker is None or not worker.send(message):
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
        return pending.value

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
                  ctx: Optional[TraceContext] = None) -> Any:
        """A replica was wanted and none could answer (none caught up
        to ``min_version``, none alive, or it died mid-request): the
        primary always can."""
        with self._lock:
            self._fallback_reads += 1
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.pool.fallback_reads")
        return self._on_primary(op, payload, deadline, ctx)

    def _on_primary(self, op: str, payload, deadline: Optional[float],
                    ctx: Optional[TraceContext] = None) -> Any:
        """Serve a read from the primary's published snapshot — always
        current, so correct for any ``min_version`` — in the shape a
        worker would have answered."""
        service = self._service
        if op == "query":
            return service.query(payload, deadline=deadline, ctx=ctx)
        if op == "ask":
            return service.ask(payload, deadline=deadline, ctx=ctx)
        if op == "match":
            return service.match(payload, deadline=deadline, ctx=ctx)
        if op == "navigate":
            return service.navigate(payload, deadline=deadline,
                                    ctx=ctx).render()
        if op == "try":
            return service.try_(payload, deadline=deadline, ctx=ctx)
        if op == "probe":
            outcome = service.probe(payload, deadline=deadline, ctx=ctx)
            return {"succeeded": outcome.succeeded,
                    "value": outcome.value,
                    "waves": len(outcome.waves)}
        if op == "stats":
            return service.database_stats(deadline=deadline)
        raise ReplicaError(f"unknown read operation {op!r}")

    # ------------------------------------------------------------------
    # Read API (mirrors the service; ticket= adds read-your-writes)
    # ------------------------------------------------------------------
    def query(self, query: str, deadline: Optional[float] = None,
              ticket: Optional[WriteTicket] = None,
              min_version: int = 0,
              ctx: Optional[TraceContext] = None):
        """Evaluate a query (set of tuples)."""
        return self._read("query", query, deadline, ticket, min_version,
                          ctx)

    def ask(self, query: str, deadline: Optional[float] = None,
            ticket: Optional[WriteTicket] = None,
            min_version: int = 0,
            ctx: Optional[TraceContext] = None) -> bool:
        """Closed-query truth test."""
        return self._read("ask", query, deadline, ticket, min_version,
                          ctx)

    def match(self, pattern: str, deadline: Optional[float] = None,
              ticket: Optional[WriteTicket] = None,
              min_version: int = 0,
              ctx: Optional[TraceContext] = None):
        """Template match (list of facts)."""
        return self._read("match", pattern, deadline, ticket, min_version,
                          ctx)

    def navigate(self, pattern: str, deadline: Optional[float] = None,
                 ticket: Optional[WriteTicket] = None,
                 min_version: int = 0,
                 ctx: Optional[TraceContext] = None) -> str:
        """One browsing step, as rendered text."""
        return self._read("navigate", pattern, deadline, ticket,
                          min_version, ctx)

    def try_(self, entity: str, deadline: Optional[float] = None,
             ticket: Optional[WriteTicket] = None,
             min_version: int = 0,
             ctx: Optional[TraceContext] = None):
        """The paper's ``try`` operator."""
        return self._read("try", entity, deadline, ticket, min_version,
                          ctx)

    def probe(self, query: str, deadline: Optional[float] = None,
              ticket: Optional[WriteTicket] = None,
              min_version: int = 0,
              ctx: Optional[TraceContext] = None) -> dict:
        """Broadened query: ``{"succeeded", "value", "waves"}``."""
        return self._read("probe", query, deadline, ticket, min_version,
                          ctx)

    def database_stats(self, deadline: Optional[float] = None,
                       min_version: int = 0,
                       ctx: Optional[TraceContext] = None) -> dict:
        """A replica's :meth:`~repro.db.Database.stats` — always asked
        of a worker, never routed to the primary first."""
        return self._read("stats", None, deadline, None, min_version, ctx)

    # ------------------------------------------------------------------
    # Introspection and control
    # ------------------------------------------------------------------
    def wait_ready(self, timeout: Optional[float] = 60.0) -> None:
        """Block until every live worker finished bootstrapping."""
        limit = (None if timeout is None
                 else time.monotonic() + timeout)
        with self._version_cv:
            while True:
                alive = [w for w in self._workers if w.alive]
                if alive and all(w.ready for w in alive):
                    return
                remaining = (None if limit is None
                             else limit - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise ReplicaError(
                        "replica workers did not become ready in time")
                self._version_cv.wait(remaining
                                      if remaining is not None else 1.0)

    def wait_for_version(self, version: int, *, all_workers: bool = False,
                         timeout: Optional[float] = 30.0) -> None:
        """Block until one (or every) live worker has applied
        ``version`` — the replication-lag barrier used by tests and
        the failover benchmark."""
        limit = (None if timeout is None
                 else time.monotonic() + timeout)
        with self._version_cv:
            while True:
                applied = [w.applied for w in self._workers if w.alive]
                if applied:
                    reached = (min(applied) if all_workers
                               else max(applied))
                    if reached >= version:
                        return
                remaining = (None if limit is None
                             else limit - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise DeadlineExceeded(
                        f"replicas did not reach version {version}"
                        f" in time (applied: {applied})")
                self._version_cv.wait(remaining
                                      if remaining is not None else 1.0)

    def compact_generation(self, timeout: float = 60.0) -> int:
        """Rebuild the shared generation pair from the current
        published snapshot and re-attach every live worker to it.

        This is the writer-driven compaction of the generation
        lifecycle: worker overlays (facts accumulated through delta
        replay since bootstrap) fold back into a fresh frozen
        generation, the delta-replay buffer resets, and future
        respawns attach the new pair.  The old segments are unlinked
        once every live worker acks the re-attach (or dies trying);
        on timeout they are parked and unlinked at :meth:`close`.

        Only meaningful under ``bootstrap="generation"``.  Returns the
        new generation's replication sequence.
        """
        if self.bootstrap != "generation":
            raise ValueError(
                "compact_generation requires bootstrap='generation'")
        with self._lock:
            if self._closed:
                raise ServiceClosed("replica pool is closed")
            old = self._gen
            if old is not None:
                self._retired_segments.extend(old.segment_names())
                old.release()
            self._gen = self._build_generations()
            self._gen_log = []
            self._gen_stale = False
            self.compactions += 1
            if _obs.ENABLED:
                _obs.TELEMETRY.count("serve.pool.compactions")
            state = self._generation_bootstrap()
            targets = [(w, w.gen_acks) for w in self._workers if w.alive]
            target_seq = state.version
            # Send the re-attach while still holding the lock: a delta
            # shipped concurrently is either in the state's backlog
            # (appended before the snapshot) or its pipe write is
            # ordered after ours (the writer thread appends under this
            # lock before sending) — never consumed at the old
            # generation and then silently dropped by the re-attach.
            for worker, _ in targets:
                worker.send(("generation", state))
        limit = time.monotonic() + timeout
        acked = True
        with self._version_cv:
            while True:
                if all(worker.gen_acks > acks or not worker.alive
                       for worker, acks in targets):
                    break
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    acked = False
                    break
                self._version_cv.wait(remaining)
        if acked:
            self._unlink_retired()
        return target_seq

    def _unlink_retired(self) -> None:
        """Unlink every retired generation segment (idempotent; missing
        segments are fine — another path may have won the race)."""
        from ..core.interned import unlink_generation

        with self._lock:
            names, self._retired_segments = self._retired_segments, []
        for name in names:
            try:
                unlink_generation(name)
            except OSError:  # pragma: no cover - defensive
                pass

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
                "heartbeat_interval": self.heartbeat_interval,
                "worker_metrics_received": sum(
                    w.metrics_seq for w in self._workers),
                "closed": self._closed,
                "bootstrap": self.bootstrap,
                "generation_seq": (self._gen.seq
                                   if self._gen is not None else None),
                "generation_log": len(self._gen_log),
                "generation_stale": self._gen_stale,
                "retired_segments": len(self._retired_segments),
                "compact_after": self.compact_after,
                "compactions": self.compactions,
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
        self._heartbeat_stop.set()
        self._service.unsubscribe_deltas(self._on_delta)
        compacting = self._compact_thread
        if compacting is not None and compacting.is_alive():
            # Let an in-flight background fold finish (or hit the
            # closed check) before tearing down its workers.
            compacting.join(timeout)
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
        # Workers are gone: the shared generation segments (current pair
        # plus anything parked by compaction or rebuild) have no readers
        # left and must be unlinked here, or they outlive the pool in
        # /dev/shm.
        with self._lock:
            if self._gen is not None:
                self._retired_segments.extend(self._gen.segment_names())
                self._gen.release()
                self._gen = None
        self._unlink_retired()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Alias for :meth:`close` (service-style naming)."""
        self.close(timeout=timeout)

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        alive = sum(1 for w in self._workers if w.alive)
        return (f"ReplicaPool({state}, workers={len(self._workers)},"
                f" alive={alive}, start_method={self.start_method})")
