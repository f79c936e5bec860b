"""Replica workers: process-local read replicas fed by a delta log.

CPython's GIL caps the thread-based service at roughly one core of
aggregate read throughput, however many reader threads connect.  This
module is the worker half of the standard log-shipping answer: the
primary keeps its single writer thread, and each *worker process*
holds a :class:`~repro.db.Database` replica *attached* to the
generation the pool last shared (:class:`GenerationBootstrap` — the
name of one generation file it maps, never a copied heap), which it
keeps current by applying ordered :class:`Delta` records shipped over
a pipe.  A record carries what the primary's writer already derived:
the batch's net change to the base heap *and* to the standard closure,
plus the closure statistics it left, so a worker derives nothing — it
applies both halves to its overlays as plain store operations
(:meth:`repro.db.Database.apply_delta`) and runs no rule.  A worker
does one of two things with a message that changes its data: it
applies a record, or it attaches a generation.  A batch the primary
could not maintain incrementally (a rule or limit control, an
``(r, ∈, R_c)`` declaration, an ``auto_check`` rollback) has no
closure half and never reaches a worker as a record: the pool shares
the snapshot published for it and the worker re-attaches, as it does
after every fold, so its overlay never outgrows the one budget
(:data:`~repro.core.interned.OVERLAY_BUDGET`).

The parent half — sharing, spawning, routing, read-your-writes,
respawn — lives in :mod:`repro.serve.pool`.  This module is
deliberately parent-agnostic: :func:`replica_main` speaks only the
pipe protocol, which keeps it importable under the ``spawn`` start
method and easy to drive from tests without any pool at all.  Its one
read executor, :func:`run_read`, is also the primary's
(:class:`~repro.serve.DatabaseService`), so a read reports the same
spans, counters and slow-query record wherever it runs.

Pipe protocol (parent → worker)::

    ("delta", Delta)                     apply, then ack
    ("generation", GenerationBootstrap)  re-attach to the generation
                                         the pool shared, then ack
                                         ("reattached", …)
    ("read", rid, op, payload, seconds, trace)
                                         evaluate under a deadline;
                                         ``trace`` is a TraceContext
                                         wire dict, or None
    ("metrics_request",)                 ship a metrics snapshot
    ("crash",)                           hard-exit (failover tests)
    ("stop",)                            clean shutdown

and worker → parent::

    ("ready", version)                   bootstrap finished
    ("applied", version)                 delta ack
    ("reattached", version)              generation re-attach ack (the
                                         old file is now unmapped)
    ("result", rid, ok, value, version, extra)
                                         read outcome (value is the
                                         result, or (error_name, text));
                                         ``extra`` is None, or telemetry:
                                         ``{"spans": [...]}`` and/or
                                         ``{"slow": record}``
    ("metrics", version, snapshot)       registry snapshot, on request

``version`` is always the replication sequence number — the primary's
count of published batches — never a store-internal counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import deadline as _deadline
from ..core.errors import DeadlineExceeded, ReproError, ServiceError
from ..core.facts import Fact
from ..db import Database
from ..obs import telemetry as _obs
from ..obs.context import TraceContext
from ..obs.slowlog import build_record, plan_summary
from ..rules.registry import RuleRegistry
from ..rules.rule import Rule

__all__ = [
    "Delta", "GenerationBootstrap", "build_replica_from_generation",
    "replica_main", "run_read",
]


@dataclass(frozen=True)
class Delta:
    """One published batch, as shipped to replicas.

    ``adds`` and ``removes`` are the batch's *net* effect on the base
    heap (a fact added and removed inside one batch appears in
    neither); ``closure_adds`` and ``closure_removes`` are its net
    effect on the standard closure store, as the writer's incremental
    maintenance reported it (insertion extension and Delete/Rederive,
    coalesced the same way), and ``closure_stats`` the closure's
    :meth:`~repro.rules.dispatch.ClosureResult.statistics` after the
    batch.  Each pair is disjoint, so applying the record is a
    handful of set operations, equivalent to replaying the batch.
    ``closure_stats`` is ``None`` when the batch recomputed the
    closure instead (a control, an ``(r, ∈, R_c)`` declaration, an
    ``auto_check`` rollback): the record then has no closure half, and
    the pool sends workers the published snapshot's generation in its
    place.  ``folded`` says the writer folded after this batch: the
    snapshot published at ``version`` has empty overlays, and a
    replica is better served by attaching its generation than by
    applying the record.
    """

    version: int
    adds: Tuple[Fact, ...] = ()
    removes: Tuple[Fact, ...] = ()
    folded: bool = False
    closure_adds: Tuple[Fact, ...] = ()
    closure_removes: Tuple[Fact, ...] = ()
    closure_stats: Optional[dict] = None


@dataclass
class GenerationBootstrap:
    """Bootstrap by *attaching*, not copying: one generation file.

    The worker receives the name of the generation file holding a
    published snapshot's closure as one frozen columnar generation
    (:mod:`repro.core.interned`; the file describes its own layout),
    whose ``STORED`` rows are the base heap, plus the configuration
    that closure was computed under.  It maps the file read-only once
    and layers each store's own small mutable overlay on top, so
    per-worker incremental memory is the overlays plus the names its
    reads decode, not a database copy, and it never recomputes the
    closure it attached.

    ``version`` is the replication sequence of the snapshot;
    ``deltas`` is the suffix published since, replayed by the worker
    before it declares readiness (the parent captures it under the
    same lock that orders delta fan-out, so the sequence seam is
    exact).  ``store_version`` / ``closure_version`` restore the exact
    store mutation counters, so the data token cached plans are
    validated against stays continuous across attach.
    """

    name: str                             # the generation file's name
    closure_stats: dict                   # ClosureResult.statistics()
    rules: List[Rule]
    enabled: Dict[str, bool]
    composition_limit: Optional[int]
    version: int
    store_version: int
    closure_version: int
    deltas: Tuple[Delta, ...] = ()

    @classmethod
    def share(cls, snap: Database,
              version: int) -> Optional["GenerationBootstrap"]:
        """Write a published snapshot's generation to one file.

        ``snap`` is the service's snapshot at replication ``version``.
        Only a snapshot with nothing outside its generation — the one
        the service was constructed with, or one the writer just
        folded — can be shared, as one write of a fresh file, never a
        build; for any other this returns ``None`` (folding is the
        writer's: :meth:`DatabaseService.fold
        <repro.serve.DatabaseService.fold>`).  The caller owns the
        file (:meth:`unlink`).  Raises
        :class:`~repro.core.errors.ReplicaError`, leaving no file
        behind, when the write is refused
        (:meth:`ColumnarGeneration.share
        <repro.core.interned.ColumnarGeneration.share>`).
        """
        result = snap.standard_closure()    # warmed before publication
        if snap.overlay_size:
            return None
        return cls(
            name=result.store.generation.share(),
            closure_stats=result.statistics(),
            rules=snap.rules.all_rules(),
            enabled=snap.rules.snapshot_state(),
            composition_limit=snap.composition_limit,
            version=version,
            store_version=snap.facts.version,
            closure_version=result.store.version,
        )

    def unlink(self) -> None:
        """Remove the file (idempotent).  Processes still attached
        keep their mappings until they release them."""
        from ..core.interned import unlink_generation

        unlink_generation(self.name)


def build_replica_from_generation(state: GenerationBootstrap) -> Database:
    """A replica database attached to one shared columnar generation.

    Base heap and standard closure are each an
    :class:`~repro.core.interned.InternedFactStore` over the one
    mapped, parent-owned generation file — the base its ``STORED``
    rows, the closure every row: zero fact copying, and the replica's
    incremental memory is its overlays plus the names its reads decode
    (the attach side's name memo).  Records change the attached
    closure's overlay in place, and it never auto-checks: integrity was
    the primary's job at write admission.  Deltas in ``state.deltas``
    are **not** applied here — the caller replays them so it can track
    the resulting version (see :func:`replica_main`).
    """
    from ..core.interned import (
        ColumnarGeneration, FlaggedFactStore, InternedFactStore,
    )
    from ..rules.dispatch import ClosureResult

    db = Database(with_axioms=False)
    generation = ColumnarGeneration.attach(state.name)
    db._base = FlaggedFactStore(generation)  # noqa: SLF001
    db._base._version = state.store_version  # noqa: SLF001
    db.rules = RuleRegistry(state.rules)
    db.rules.restore_state(state.enabled)
    db._composition_limit = state.composition_limit  # noqa: SLF001
    closure_store = InternedFactStore(generation)
    closure_store._version = state.closure_version  # noqa: SLF001
    stats = state.closure_stats
    db._standard_result = ClosureResult(  # noqa: SLF001
        store=closure_store,
        base_count=stats["base_count"],
        derived_count=stats["derived_count"],
        iterations=stats["iterations"],
        rule_firings=dict(stats["rule_firings"]),
        rule_times=dict(stats["rule_times"]),
        provenance=None,
    )
    return db


def release_attached_stores(db: Database) -> None:
    """Release a replica's generation mapping, which its base heap and
    closure stores all read.

    Called when a worker swaps to the generation of the writer's next
    fold; process exit would release it anyway, but an explicit close
    keeps the old file's pages reclaimable as soon as the pool unlinks
    it.
    """
    db.facts.close()


def _probe_payload(outcome) -> dict:
    return {"succeeded": outcome.succeeded,
            "value": outcome.value,
            "waves": len(outcome.waves)}


#: Read operations by verb, in the plain-data shape a worker ships
#: back: ``navigate`` ships rendered text (NavigationResult holds live
#: view references); everything else returns plain picklable data.
READ_OPS = {
    "query": lambda db, payload: db.query(payload),
    "ask": lambda db, payload: db.ask(payload),
    "match": lambda db, payload: db.match(payload),
    "navigate": lambda db, payload: db.navigate(payload).render(),
    "try": lambda db, payload: db.try_(payload),
    "probe": lambda db, payload: _probe_payload(db.probe(payload)),
    "stats": lambda db, payload: db.stats(),
}


def bind_read(op: str, payload) -> Callable[[Database], Any]:
    """The :data:`READ_OPS` verb ``op`` bound to ``payload``; a
    :class:`~repro.core.errors.ServiceError` for an unknown verb."""
    handler = READ_OPS.get(op)
    if handler is None:
        raise ServiceError(f"unknown read operation {op!r}")
    return lambda db: handler(db, payload)


def run_read(db: Database, op: str, fn: Callable[[Database], Any],
             seconds: Optional[float], ctx: Optional[TraceContext],
             text: str, slow_seconds: Optional[float],
             on_slow: Callable[[dict], None], replica: bool) -> Any:
    """Run one read, ``fn(db)``: the read executor of the primary's
    snapshot and of every worker's replica (``replica=True``).

    The read runs inside a :func:`~repro.core.deadline.deadline_scope`
    of ``seconds`` and, when traced, a ``service.read`` /
    ``replica.read`` span on ``ctx``.  Under telemetry it counts
    ``serve.requests`` / ``serve.requests.<op>`` (and
    ``serve.deadline_exceeded`` when cancelled) and times
    ``serve.request_seconds``, answer or error; a read slower than
    ``slow_seconds`` counts ``serve.slow_queries`` and hands its
    slow-query record (with the compiled plan's statistics) to
    ``on_slow``.  Both sides report under the same names.
    """
    if slow_seconds is not None:
        # Don't attribute a previous request's plan to this one.
        _obs.LAST_REQUEST.clear()
    started = time.perf_counter()
    try:
        if ctx is None:
            with _deadline.deadline_scope(seconds):
                return fn(db)
        with ctx.span("replica.read" if replica else "service.read",
                      role="replica" if replica else "service", op=op), \
                _deadline.deadline_scope(seconds):
            return fn(db)
    except DeadlineExceeded:
        if _obs.ENABLED:
            _obs.TELEMETRY.count("serve.deadline_exceeded")
        raise
    finally:
        elapsed = time.perf_counter() - started
        slow = slow_seconds is not None and elapsed >= slow_seconds
        if _obs.ENABLED:
            telemetry = _obs.TELEMETRY
            telemetry.count("serve.requests")
            telemetry.count(f"serve.requests.{op}")
            telemetry.gauge("serve.request_seconds", elapsed)
            telemetry.observe(f"serve.request_seconds.{op}", elapsed)
            if slow:
                telemetry.count("serve.slow_queries")
        if slow:
            last = _obs.LAST_REQUEST
            on_slow(build_record(
                op, elapsed, slow_seconds, text=text,
                source="replica" if replica else "primary",
                trace_id=ctx.trace_id if ctx is not None else None,
                deadline=seconds,
                plan=plan_summary(last.run), probe=last.probe))


def _attach(state: GenerationBootstrap) -> Tuple[Database, int]:
    """Build the replica database for one bootstrap: attach, replay
    the shipped delta suffix, warm the view.  Returns ``(db, version)``
    where ``version`` is the replication sequence the database now
    reflects."""
    db = build_replica_from_generation(state)
    version = state.version
    for delta in state.deltas:
        db.apply_delta(delta)
        version = delta.version
    db.view()
    return db, version


def replica_main(conn, state: GenerationBootstrap,
                 telemetry: Optional[dict] = None) -> None:
    """The worker process entry point.

    ``conn`` is this end of a duplex pipe; ``state`` names the shared
    generation to attach and carries the delta suffix to replay.
    Builds the replica, then serves the pipe until ``("stop",)`` or
    EOF.  Requests are handled strictly in order, so a read enqueued
    after a delta always sees that delta applied.

    ``telemetry`` configures this process's observability:
    ``{"metrics": True}`` enables a fresh telemetry spine (its snapshot
    is shipped back on each ``metrics_request``), and
    ``{"slow_query_seconds": t}`` does the same and makes reads slower
    than ``t`` attach a slow-query record (with compiled-plan stats)
    to their result.  ``None`` leaves whatever the process inherited —
    under ``fork``, a telemetry-enabled parent's child keeps collecting
    into its own copy.

    SIGINT is ignored: a terminal Ctrl-C signals the whole process
    group, but shutdown is the parent's job (a ``("stop",)`` message
    or pipe EOF) — without this, every worker would die mid-``recv``
    with a traceback instead of exiting cleanly.
    """
    import os
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):  # pragma: no cover - exotic hosts
        pass
    slow_threshold: Optional[float] = None
    if telemetry:
        slow_threshold = telemetry.get("slow_query_seconds")
        if telemetry.get("metrics") or slow_threshold is not None:
            _obs.enable_telemetry(fresh=True)
    db, version = _attach(state)
    conn.send(("ready", version))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "delta":
            delta = message[1]
            if delta.version > version:
                apply_started = time.perf_counter()
                db.apply_delta(delta)
                version = delta.version
                if _obs.ENABLED:
                    _obs.TELEMETRY.count("replica.deltas")
                    _obs.TELEMETRY.observe(
                        "replica.apply_seconds",
                        time.perf_counter() - apply_started)
            conn.send(("applied", version))
        elif kind == "generation":
            # The pool shared the snapshot of a batch that folded or
            # recomputed the closure: its generation holds every batch
            # up to its version, this one's included (the message
            # came in place of that batch's delta), and the overlay
            # built up since the last attach is dropped with the old
            # database.
            old = db
            db, version = _attach(message[1])
            release_attached_stores(old)
            # Distinct ack type: the parent must know the worker is
            # done with the *old* file (a plain delta ack could
            # predate the re-attach), so it can unlink them safely.
            conn.send(("reattached", version))
        elif kind == "read":
            rid, op, payload, seconds, trace = message[1:]
            ctx = (TraceContext.from_wire(trace)
                   if trace is not None else None)
            slow: List[dict] = []
            try:
                value = run_read(db, op, bind_read(op, payload), seconds,
                                 ctx, str(payload), slow_threshold,
                                 slow.append, replica=True)
                ok = True
            except (ReproError, ValueError) as error:
                ok, value = False, (type(error).__name__, str(error))
            except Exception as error:  # pragma: no cover - defensive
                ok, value = False, ("ReplicaError", repr(error))
            extra: Optional[Dict[str, Any]] = None
            if ctx is not None:
                extra = {"spans": ctx.collect()}
            if slow:
                extra = dict(extra or {}, slow=slow[0])
            conn.send(("result", rid, ok, value, version, extra))
        elif kind == "metrics_request":
            conn.send(("metrics", version,
                       _obs.active_telemetry().snapshot()))
        elif kind == "crash":
            os._exit(3)
        elif kind == "stop":
            return
