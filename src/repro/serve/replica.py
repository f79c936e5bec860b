"""Replica workers: process-local read replicas fed by a delta log.

CPython's GIL caps the thread-based service at roughly one core of
aggregate read throughput, however many reader threads connect.  This
module is the worker half of the standard log-shipping answer: the
primary keeps its single writer thread, and each *worker process*
holds a :class:`~repro.db.Database` replica *attached* to the
generations the writer last folded (:class:`GenerationBootstrap` —
shared-memory handles, never a copied heap), which it keeps current by
applying ordered :class:`Delta` records shipped over a pipe.  A record
carries what the primary's writer already derived: the batch's net
change to the base heap *and* to the standard closure, plus the
closure statistics it left, so a worker derives nothing — it applies
both halves to its overlays as plain store operations
(:meth:`repro.db.Database.apply_delta`) and runs no rule.  Only a
batch the primary could not maintain incrementally (a rule or limit
control, an ``(r, ∈, R_c)`` declaration, an ``auto_check`` rollback)
ships no closure half; the writer folds after it, so workers are sent
the closure to attach.  When the writer folds, the worker is sent the
new generations in place of that batch's record and re-attaches, so
its overlay never outgrows the one budget
(:data:`~repro.core.interned.OVERLAY_BUDGET`).

The parent half — sharing, spawning, routing, read-your-writes,
respawn — lives in :mod:`repro.serve.pool`.  This module is
deliberately parent-agnostic: :func:`replica_main` speaks only the
pipe protocol, which keeps it importable under the ``spawn`` start
method and easy to drive from tests without any pool at all.

Pipe protocol (parent → worker)::

    ("delta", Delta)                     apply, then ack
    ("generation", GenerationBootstrap)  the writer folded: re-attach
                                         to the generations it made,
                                         then ack ("reattached", …)
    ("read", rid, op, payload, seconds, trace)
                                         evaluate under a deadline;
                                         ``trace`` is a TraceContext
                                         wire dict, or None
    ("metrics_request",)                 ship a metrics snapshot
    ("ping",)                            liveness probe
    ("crash",)                           hard-exit (failover tests)
    ("stop",)                            clean shutdown

and worker → parent::

    ("ready", version)                   bootstrap finished
    ("applied", version)                 delta ack
    ("reattached", version)              generation re-attach ack (the
                                         old segments are now unmapped)
    ("result", rid, ok, value, version, extra)
                                         read outcome (value is the
                                         result, or (error_name, text));
                                         ``extra`` is None, or telemetry:
                                         ``{"spans": [...]}`` and/or
                                         ``{"slow": record}``
    ("metrics", version, snapshot)       registry snapshot (heartbeat)
    ("pong", version)

``version`` is always the replication sequence number — the primary's
count of published batches — never a store-internal counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core import deadline as _deadline
from ..core.errors import ReproError, ServiceError
from ..core.facts import Fact
from ..db import Database
from ..obs import telemetry as _obs
from ..obs.context import TraceContext
from ..obs.slowlog import build_record, plan_summary
from ..rules.registry import RuleRegistry
from ..rules.rule import Rule

__all__ = [
    "Delta", "GenerationBootstrap", "build_replica_from_generation",
    "apply_delta_message", "replica_main",
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
    :meth:`~repro.rules.engine.ClosureResult.statistics` after the
    batch.  Each pair is disjoint, so applying the record is a
    handful of set operations, equivalent to replaying the batch.
    ``closure_stats`` is ``None`` when the batch recomputed the
    closure instead: the record then has no closure half, and a
    replica that applies it recomputes.  ``controls`` carries the
    non-fact operations in application order: ``("limit", n)``,
    ``("include", name_or_rule)``, ``("exclude", name)``, and
    ``("define_rule", name, text, is_constraint)``.  ``folded`` says
    the writer folded after this batch: the snapshot published at
    ``version`` has empty overlays, and a replica is better served by
    attaching its generations than by applying the record.
    """

    version: int
    adds: Tuple[Fact, ...] = ()
    removes: Tuple[Fact, ...] = ()
    controls: Tuple[tuple, ...] = ()
    folded: bool = False
    closure_adds: Tuple[Fact, ...] = ()
    closure_removes: Tuple[Fact, ...] = ()
    closure_stats: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.adds) + len(self.removes) + len(self.controls)


@dataclass
class GenerationBootstrap:
    """Bootstrap by *attaching*, not copying: shared-memory handles.

    The worker receives the names and layouts of the shared-memory
    segments holding a published snapshot's base heap and standard
    closure as frozen columnar generations
    (:mod:`repro.core.interned`), plus the configuration that closure
    was computed under.  It maps the segments read-only-by-convention
    and layers its own small mutable overlay on top, so per-worker
    incremental memory is the overlay plus decode memo, not a database
    copy, and it never recomputes the closure it attached.

    ``version`` is the replication sequence of the snapshot;
    ``deltas`` is the suffix published since, replayed by the worker
    before it declares readiness (the parent captures it under the
    same lock that orders delta fan-out, so the sequence seam is
    exact).  ``store_version`` / ``closure_version`` restore the exact
    store mutation counters, so the data token cached plans are
    validated against stays continuous across attach.
    """

    base_handle: Any                      # core.interned.GenerationHandle
    closure_handle: Any
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
        """Place a published snapshot's generations in shared memory.

        ``snap`` is the service's snapshot at replication ``version``.
        Only a snapshot with nothing outside its generations — the one
        the service was constructed with, or one the writer just
        folded — can be shared, as two copies into fresh segments,
        never a build; for any other this returns ``None`` (folding is
        the writer's: :meth:`DatabaseService.fold
        <repro.serve.DatabaseService.fold>`).  The caller owns both
        segments (:meth:`unlink`).  Raises
        :class:`~repro.core.errors.ReplicaError`, leaving no segment
        behind, when shared memory has no room
        (:meth:`ColumnarGeneration.share
        <repro.core.interned.ColumnarGeneration.share>`).
        """
        from ..core.interned import unlink_generation

        base = snap.facts
        result = snap.standard_closure()    # warmed before publication
        if base.overlay_size or result.store.overlay_size:
            return None
        base_handle = base.generation.share()
        try:
            closure_handle = result.store.generation.share()
        except BaseException:
            unlink_generation(base_handle.name)
            raise
        return cls(
            base_handle=base_handle,
            closure_handle=closure_handle,
            closure_stats=result.statistics(),
            rules=snap.rules.all_rules(),
            enabled=snap.rules.snapshot_state(),
            composition_limit=snap.composition_limit,
            version=version,
            store_version=base.version,
            closure_version=result.store.version,
        )

    def segment_names(self) -> List[str]:
        return [self.base_handle.name, self.closure_handle.name]

    def unlink(self) -> None:
        """Remove both segments (idempotent).  Processes still attached
        keep their mappings until they release them."""
        from ..core.interned import unlink_generation

        for name in self.segment_names():
            unlink_generation(name)


def build_replica_from_generation(state: GenerationBootstrap) -> Database:
    """A replica database attached to shared columnar generations.

    Base heap and standard closure are each an
    :class:`~repro.core.interned.InternedFactStore` over the
    parent-owned shared segment: zero fact copying, and the replica's
    incremental memory is its overlay plus whatever facts its reads
    decode.  Records change the attached closure's overlay in place,
    and it never auto-checks: integrity was the primary's job at write
    admission.  Deltas in ``state.deltas`` are **not** applied here —
    the caller replays them so it can track the resulting version (see
    :func:`replica_main`).
    """
    from ..core.interned import InternedFactStore
    from ..rules.engine import ClosureResult

    db = Database(with_axioms=False)
    base = InternedFactStore.attach(state.base_handle)
    base._version = state.store_version  # noqa: SLF001
    db._base = base  # noqa: SLF001
    db.rules = RuleRegistry(state.rules)
    db.rules.restore_state(state.enabled)
    db._composition_limit = state.composition_limit  # noqa: SLF001
    closure_store = InternedFactStore.attach(state.closure_handle)
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
    """Release a replica's shared-memory mappings (base + closure).

    Called when a worker swaps to the generations of the writer's next
    fold; process exit would release them anyway, but an explicit close
    keeps the old segment's pages reclaimable as soon as the pool
    unlinks it.  (The closure seeds its store from the base heap's
    type, so all three are interned stores.)
    """
    results = (db._standard_result, db._full_result)  # noqa: SLF001
    for store in [db.facts] + [r.store for r in results if r is not None]:
        store.close()


def apply_delta_message(db: Database, delta: Delta) -> None:
    """Apply one shipped delta: its base and closure halves, then
    controls.

    The halves go through :meth:`~repro.db.Database.apply_delta` (store
    operations, no rule); controls go through the same public methods
    the primary used, so a rule toggle invalidates the replica's
    closure exactly as it did the primary's.
    """
    db.apply_delta(delta)
    for control in delta.controls:
        kind = control[0]
        if kind == "limit":
            db.limit(control[1])
        elif kind == "include":
            db.include(control[1])
        elif kind == "exclude":
            db.exclude(control[1])
        elif kind == "define_rule":
            _, name, text, is_constraint = control
            db.define_rule(name, text, is_constraint=is_constraint)
        else:  # pragma: no cover - versioned protocol guard
            raise ServiceError(f"unknown control operation {kind!r}")


def _probe_payload(outcome) -> dict:
    return {"succeeded": outcome.succeeded,
            "value": outcome.value,
            "waves": len(outcome.waves)}


#: Read operations a worker can serve.  ``navigate`` ships rendered
#: text (NavigationResult holds live view references); everything else
#: returns plain picklable data.
READ_OPS = {
    "query": lambda db, payload: db.query(payload),
    "ask": lambda db, payload: db.ask(payload),
    "match": lambda db, payload: db.match(payload),
    "navigate": lambda db, payload: db.navigate(payload).render(),
    "try": lambda db, payload: db.try_(payload),
    "probe": lambda db, payload: _probe_payload(db.probe(payload)),
    "stats": lambda db, payload: db.stats(),
}


def _attach(state: GenerationBootstrap) -> Tuple[Database, int]:
    """Build the replica database for one bootstrap: attach, replay
    the shipped delta suffix, warm the view.  Returns ``(db, version)``
    where ``version`` is the replication sequence the database now
    reflects."""
    db = build_replica_from_generation(state)
    version = state.version
    for delta in state.deltas:
        apply_delta_message(db, delta)
        version = delta.version
    db.view()
    return db, version


def replica_main(conn, state: GenerationBootstrap,
                 telemetry: Optional[dict] = None) -> None:
    """The worker process entry point.

    ``conn`` is this end of a duplex pipe; ``state`` names the shared
    generations to attach and carries the delta suffix to replay.
    Builds the replica, then serves the pipe until ``("stop",)`` or
    EOF.  Requests are handled strictly in order, so a read enqueued
    after a delta always sees that delta applied.

    ``telemetry`` configures this process's observability:
    ``{"metrics": True}`` enables a fresh telemetry spine (shipped
    back on ``metrics_request`` heartbeats), and
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
                apply_delta_message(db, delta)
                version = delta.version
                if _obs.ENABLED:
                    _obs.TELEMETRY.count("replica.deltas")
                    _obs.TELEMETRY.observe(
                        "replica.apply_seconds",
                        time.perf_counter() - apply_started)
            conn.send(("applied", version))
        elif kind == "generation":
            # The writer folded: its new generations hold every batch
            # up to their version, this one's included (the message
            # came in place of that batch's delta), and the overlay
            # built up since the last attach is dropped with the old
            # database.
            old = db
            db, version = _attach(message[1])
            release_attached_stores(old)
            # Distinct ack type: the parent must know the worker is
            # done with the *old* segments (a plain delta ack could
            # predate the re-attach), so it can unlink them safely.
            conn.send(("reattached", version))
        elif kind == "read":
            rid, op, read_payload, seconds, trace = message[1:]
            ctx = (TraceContext.from_wire(trace)
                   if trace is not None else None)
            if slow_threshold is not None:
                _obs.LAST_REQUEST.clear()
            started = time.perf_counter()
            try:
                handler = READ_OPS.get(op)
                if handler is None:
                    raise ServiceError(f"unknown read operation {op!r}")
                if ctx is not None:
                    with ctx.span("replica.read", role="replica", op=op):
                        with _deadline.deadline_scope(seconds):
                            value = handler(db, read_payload)
                else:
                    with _deadline.deadline_scope(seconds):
                        value = handler(db, read_payload)
                ok = True
            except (ReproError, ValueError) as error:
                ok, value = False, (type(error).__name__, str(error))
            except Exception as error:  # pragma: no cover - defensive
                ok, value = False, ("ReplicaError", repr(error))
            elapsed = time.perf_counter() - started
            slow = slow_threshold is not None and elapsed >= slow_threshold
            if _obs.ENABLED:
                registry = _obs.TELEMETRY
                registry.count("serve.requests")
                registry.count(f"serve.requests.{op}")
                registry.count("replica.reads")
                registry.observe(f"serve.request_seconds.{op}", elapsed)
                if slow:
                    registry.count("serve.slow_queries")
            extra: Optional[Dict[str, Any]] = None
            if ctx is not None:
                extra = {"spans": ctx.collect()}
            if slow:
                record = build_record(
                    op, elapsed, slow_threshold,
                    text=str(read_payload), source="replica",
                    trace_id=ctx.trace_id if ctx is not None else None,
                    deadline=seconds,
                    plan=plan_summary(_obs.LAST_REQUEST.run),
                    probe=_obs.LAST_REQUEST.probe)
                extra = extra or {}
                extra["slow"] = record
            conn.send(("result", rid, ok, value, version, extra))
        elif kind == "metrics_request":
            conn.send(("metrics", version,
                       _obs.active_telemetry().snapshot()))
        elif kind == "ping":
            conn.send(("pong", version))
        elif kind == "crash":
            os._exit(3)
        elif kind == "stop":
            # Release attached shared-memory views before interpreter
            # teardown: GC order is arbitrary there, and closing a
            # segment while typed views still reference its buffer
            # raises BufferError noise on the way out.
            release_attached_stores(db)
            return
