"""Replica workers: process-local read replicas fed by a delta log.

CPython's GIL caps the thread-based service at roughly one core of
aggregate read throughput, however many reader threads connect.  This
module is the worker half of the standard log-shipping answer: the
primary keeps its single writer thread, and each *worker process*
holds a full :class:`~repro.db.Database` replica that it keeps current
by applying ordered :class:`Delta` records — coalesced net fact
mutations plus rule/limit control operations — shipped over a pipe.
Deltas ride the database's existing incremental maintenance
(:meth:`repro.db.Database.apply_delta`: insertion extension and
Delete/Rederive), so the replica hot path never recomputes the closure
from scratch.

The parent half — spawning, routing, read-your-writes, respawn — lives
in :mod:`repro.serve.pool`.  This module is deliberately
parent-agnostic: :func:`replica_main` speaks only the pipe protocol,
which keeps it importable under the ``spawn`` start method and easy to
drive from tests without any pool at all.

Pipe protocol (parent → worker)::

    ("delta", Delta)                     apply, then ack
    ("generation", GenerationBootstrap)  re-attach to a newly compacted
                                         shared generation, then ack
                                         ("applied", version)
    ("read", rid, op, payload, seconds)  evaluate under a deadline
    ("read", rid, op, payload, seconds, trace)
                                         same, traced: ``trace`` is a
                                         TraceContext wire dict
    ("metrics_request",)                 ship a metrics snapshot
    ("ping",)                            liveness probe
    ("crash",)                           hard-exit (failover tests)
    ("stop",)                            clean shutdown

and worker → parent::

    ("ready", version)                   bootstrap finished
    ("applied", version)                 delta ack
    ("reattached", version)              generation re-attach ack (the
                                         old segments are now unmapped)
    ("result", rid, ok, value, version)  read outcome (value is the
                                         result, or (error_name, text))
    ("result", rid, ok, value, version, extra)
                                         same, with telemetry: ``extra``
                                         is ``{"spans": [...]}`` and/or
                                         ``{"slow": record}``
    ("metrics", version, snapshot)       registry snapshot (heartbeat)
    ("pong", version)

Both sides accept the shorter historical forms, so a parent and worker
from adjacent versions interoperate.  ``version`` is always the
replication sequence number — the primary's count of published
batches — never a store-internal counter, so a replica bootstrapped
from disk and one bootstrapped from a shipped state agree on where
they stand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
    "Delta", "BootstrapState", "GenerationBootstrap",
    "capture_bootstrap", "build_replica",
    "build_replica_from_generation", "bootstrap_from_directory",
    "apply_delta_message", "replica_main",
]


@dataclass(frozen=True)
class Delta:
    """One published batch, as shipped to replicas.

    ``adds`` and ``removes`` are the batch's *net* effect on the base
    heap (a fact added and removed inside one batch appears in
    neither), so applying them in any order within the record is
    equivalent to replaying the batch.  ``controls`` carries the
    non-fact operations in application order: ``("limit", n)``,
    ``("include", name_or_rule)``, ``("exclude", name)``, and
    ``("define_rule", name, text, is_constraint)``.
    """

    version: int
    adds: Tuple[Fact, ...] = ()
    removes: Tuple[Fact, ...] = ()
    controls: Tuple[tuple, ...] = ()

    def __len__(self) -> int:
        return len(self.adds) + len(self.removes) + len(self.controls)


@dataclass
class BootstrapState:
    """Everything a worker needs to reconstruct the primary's database.

    Captured from a published (frozen) snapshot, so it is internally
    consistent; rules ship as their parsed :class:`Rule` dataclasses
    (plain picklable data).  ``version`` is the replication sequence
    the state corresponds to — deltas at or below it are skipped.
    """

    facts: List[Fact] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    enabled: Dict[str, bool] = field(default_factory=dict)
    composition_limit: Optional[int] = 1
    engine: str = "dispatched"
    version: int = 0


@dataclass
class GenerationBootstrap:
    """Bootstrap by *attaching*, not copying: shared-memory handles.

    Instead of a pickled fact list, the worker receives the names and
    layouts of the shared-memory segments holding the primary's base
    heap — and, when available, its computed standard closure — as
    frozen columnar generations (:mod:`repro.core.interned`).  The
    worker maps the segments read-only-by-convention and layers its own
    small mutable overlay on top, so per-worker incremental memory is
    the overlay plus decode memo, not a full database copy; with the
    closure shipped too, the worker skips recomputing it entirely.

    ``version`` is the replication sequence the generations correspond
    to; ``deltas`` is the suffix published after the generations were
    built, replayed by the worker before it declares readiness (the
    parent captures it under the same lock that orders delta fan-out,
    so the sequence seam is exact).  ``store_version`` /
    ``closure_version`` restore the exact store mutation counters, so
    version-keyed result caches stay continuous across attach.
    """

    base_handle: Any                      # core.interned.GenerationHandle
    closure_handle: Optional[Any] = None
    closure_stats: Optional[dict] = None  # ClosureResult scalars
    rules: List[Rule] = field(default_factory=list)
    enabled: Dict[str, bool] = field(default_factory=dict)
    composition_limit: Optional[int] = 1
    engine: str = "dispatched"
    version: int = 0
    deltas: Tuple[Delta, ...] = ()
    store_version: Optional[int] = None
    closure_version: Optional[int] = None


def capture_bootstrap(db: Database, version: int) -> BootstrapState:
    """Snapshot a database's replicable state at replication ``version``.

    ``db`` should be an immutable published snapshot (or otherwise not
    concurrently mutated while this runs).
    """
    return BootstrapState(
        facts=list(db.facts),
        rules=db.rules.all_rules(),
        enabled=db.rules.snapshot_state(),
        composition_limit=db.composition_limit,
        engine=db.engine,
        version=version,
    )


def build_replica(state: BootstrapState) -> Database:
    """A fresh mutable database equal to the captured state.

    Axioms are not re-seeded — the captured fact list already contains
    whatever the primary stored.  The replica keeps incremental
    maintenance on (that is the whole point: deltas extend the cached
    closure in place) and never auto-checks: integrity was the
    primary's job at write admission.
    """
    db = Database(state.facts, with_axioms=False, engine=state.engine)
    db.rules = RuleRegistry(state.rules)
    db.rules.restore_state(state.enabled)
    db._composition_limit = state.composition_limit  # noqa: SLF001
    return db


def build_replica_from_generation(state: GenerationBootstrap) -> Database:
    """A replica database attached to shared columnar generations.

    The base heap (and the standard closure, when its handle shipped)
    is an :class:`~repro.core.interned.InternedFactStore` over the
    parent-owned shared segment: zero fact copying at bootstrap, and
    the worker's incremental memory is its overlay plus whatever facts
    its reads decode.  Deltas in ``state.deltas`` are **not** applied
    here — the caller replays them so it can track the resulting
    version (see :func:`replica_main`).
    """
    from ..core.interned import InternedFactStore
    from ..rules.engine import ClosureResult

    db = Database(with_axioms=False, engine=state.engine)
    base = InternedFactStore.attach(state.base_handle)
    if state.store_version is not None:
        base._version = state.store_version  # noqa: SLF001
    db._base = base  # noqa: SLF001
    db.rules = RuleRegistry(state.rules)
    db.rules.restore_state(state.enabled)
    db._composition_limit = state.composition_limit  # noqa: SLF001
    if state.closure_handle is not None:
        closure_store = InternedFactStore.attach(state.closure_handle)
        if state.closure_version is not None:
            closure_store._version = state.closure_version  # noqa: SLF001
        stats = state.closure_stats or {}
        db._standard_result = ClosureResult(  # noqa: SLF001
            store=closure_store,
            base_count=stats.get("base_count", len(base)),
            derived_count=stats.get(
                "derived_count", len(closure_store) - len(base)),
            iterations=stats.get("iterations", 0),
            rule_firings=dict(stats.get("rule_firings", {})),
            rule_times=dict(stats.get("rule_times", {})),
            provenance=None,
        )
    return db


def release_attached_stores(db: Database) -> None:
    """Release a replica's shared-memory mappings (base + closure).

    Called when a worker swaps to a newly compacted generation; process
    exit would release them anyway, but an explicit close keeps the old
    segment's pages reclaimable as soon as the writer unlinks it.
    """
    for store in (db.facts,
                  getattr(db._standard_result, "store", None)  # noqa: SLF001
                  if db._standard_result is not None else None,  # noqa: SLF001
                  getattr(db._full_result, "store", None)  # noqa: SLF001
                  if db._full_result is not None else None):  # noqa: SLF001
        close = getattr(store, "close", None)
        if close is not None:
            try:
                close()
            except Exception:  # pragma: no cover - defensive
                pass


def bootstrap_from_directory(directory: str,
                             config: BootstrapState) -> Database:
    """Build a replica by replaying a durable directory's state.

    The fact heap comes from the on-disk snapshot + journal
    (:meth:`repro.storage.session.DurableSession.recover_state` — the
    journal is ordered, so the replayed heap is the primary's heap as
    of the last journaled batch), while rules, enable states, the
    composition limit, and the engine come from ``config``: rule
    definitions and toggles are not journaled, so the parent captures
    them at spawn time.  Because the disk may already be *ahead* of
    ``config.version``, the parent replays the delta suffix from that
    version; :meth:`~repro.db.Database.apply_delta` is idempotent, so
    the overlap is harmless.
    """
    from ..storage.session import DurableSession

    session = DurableSession(directory)
    try:
        disk = session.recover_state()
    finally:
        session.close()
    return build_replica(BootstrapState(
        facts=disk.facts,
        rules=config.rules,
        enabled=config.enabled,
        composition_limit=config.composition_limit,
        engine=config.engine,
        version=config.version,
    ))


def apply_delta_message(db: Database, delta: Delta) -> None:
    """Apply one shipped delta: net fact mutations, then controls.

    Fact mutations go through :meth:`~repro.db.Database.apply_delta`
    (incremental maintenance); controls go through the same public
    methods the primary used, so a rule toggle invalidates the
    replica's closure exactly as it did the primary's.
    """
    db.apply_delta(delta.adds, delta.removes)
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


def _bootstrap(payload) -> Tuple[Database, int]:
    """Build the replica database for one bootstrap payload.

    Returns ``(db, version)`` where ``version`` is the replication
    sequence the database now reflects — for generation payloads that
    includes the shipped delta suffix, replayed here.
    """
    kind = payload[0]
    if kind == "state":
        return build_replica(payload[1]), payload[1].version
    if kind == "directory":
        return (bootstrap_from_directory(payload[1], payload[2]),
                payload[2].version)
    if kind == "generation":
        state: GenerationBootstrap = payload[1]
        db = build_replica_from_generation(state)
        version = state.version
        for delta in state.deltas:
            if delta.version > version:
                apply_delta_message(db, delta)
                version = delta.version
        return db, version
    raise ServiceError(f"unknown bootstrap payload {kind!r}")


def replica_main(conn, payload, telemetry: Optional[dict] = None) -> None:
    """The worker process entry point.

    ``conn`` is this end of a duplex pipe; ``payload`` is
    ``("state", BootstrapState)``,
    ``("generation", GenerationBootstrap)`` (attach to shared-memory
    columnar generations and replay the shipped delta suffix), or
    ``("directory", path, BootstrapState)`` (the directory variant
    reads facts from disk and takes configuration from the state).
    Builds the replica, warms its closure, then serves the pipe until
    ``("stop",)`` or EOF.  Requests are handled strictly in order, so
    a read enqueued after a delta always sees that delta applied.

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
    db, version = _bootstrap(payload)
    db.view()   # warm the closure before declaring readiness
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
            # The writer compacted a new shared generation: re-attach.
            # The new generations already contain every delta at or
            # below their version, so jumping forward is safe; any
            # already-queued delta at or below it is dropped by the
            # ``version >`` guard above.  An older-than-current
            # generation (cannot happen under one writer, but guard
            # anyway) is ignored.
            state = message[1]
            target = state.version
            for delta in state.deltas:
                target = max(target, delta.version)
            if target >= version:
                old = db
                db, version = _bootstrap(("generation", state))
                db.view()
                release_attached_stores(old)
            # Distinct ack type: the parent must know the worker is
            # done with the *old* segments (a plain delta ack could
            # predate the re-attach), so it can unlink them safely.
            conn.send(("reattached", version))
        elif kind == "read":
            rid, op, read_payload, seconds = message[1:5]
            ctx = (TraceContext.from_wire(message[5])
                   if len(message) > 5 else None)
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
            if extra is None:
                conn.send(("result", rid, ok, value, version))
            else:
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
