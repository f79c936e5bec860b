"""Shape-classified plan cache.

The paper's browsing loop (navigate, probe, retract) is dominated by
µs-scale queries, where the fixed costs in front of the executor —
parse, safety check, plan lowering — outweigh the actual probe.  This
module removes them from the hot path:

* **Parse memo** — query text is normalized by
  :func:`~repro.query.canonical.canonical_text` and parsed at most once
  per canonical spelling.
* **Plan cache** — parse + safety + compile results are cached per
  ``(canonical form, schema epoch)``.  The epoch is the database's
  configuration epoch (rule/view/limit changes bump it), so a
  redefinition can never serve a stale plan.  A cached plan also
  records the store *version* it was lowered against: when the version
  moves, the plan is recompiled (fresh planner estimates, fresh
  provably-empty hints) and the ``plancache.recompiles`` counter ticks.
* **Shape classifier** — :func:`classify` labels each plan
  (``point``/``star``/``scan``/``join``/``complex``) for observability.
  Every shape runs through the same executor
  (:func:`~repro.query.exec.execute_plan`).  Plans are remembered
  here; answers are not (a whole answer is remembered in one place,
  the net layer's per-snapshot memo, :mod:`repro.serve.net`).

Hit/miss totals are exposed as attributes and as the
``plancache.hits`` / ``plancache.misses`` telemetry counters.

Example::

    from repro import Database

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    db.query("(x, ∈, EMPLOYEE)")       # parse + compile: a miss
    db.query("(x,  ∈,  EMPLOYEE)")     # same canonical form: a hit
    db.ask("(JOHN, ∈, EMPLOYEE)")      # shares the same cache
    stats = db.stats()["plan_cache"]
    assert stats["hits"] >= 1 and stats["misses"] >= 1
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple, Union

from ..core.errors import QueryError
from ..core.facts import Variable
from ..obs import telemetry as _obs
from .ast import Query
from .canonical import canonical_text
from .compile import (AtomJoin, CompiledPlan, annotate_plan_ids,
                      compile_query)
from .evaluate import check_safety
from .parser import parse_query

def classify(plan: CompiledPlan) -> str:
    """The plan's shape label, kept on the cache entry for observability.

    ``point``
        one atom, every position ground (a membership probe);
    ``star``
        one atom with at least one ground position (a navigation /
        point-read probe — one positional index serves it);
    ``scan``
        one fully open atom;
    ``join``
        a conjunction of atoms only;
    ``complex``
        anything with quantifiers or disjunction.
    """
    root = plan.root
    if isinstance(root, AtomJoin):
        pattern = root.formula.pattern
        ground = sum(1 for c in pattern if not isinstance(c, Variable))
        if ground == 3:
            return "point"
        return "star" if ground else "scan"
    ops = {node.op for node, _ in plan.walk()}
    if ops <= {"pipeline", "atom-join"}:
        return "join"
    return "complex"


class PlanEntry:
    """One cached query: the parsed form, the compiled plan (or the
    cached static :class:`~repro.core.errors.QueryError` message) and
    the shape label.

    ``token`` is the data token the plan was lowered under (the
    database's ``(base version, epoch, limit)``): any base mutation
    moves it, which is what lets :meth:`PlanCache.plan_for` trust
    planner estimates and provably-empty hints while it matches.
    """

    __slots__ = ("query", "error", "plan", "token", "shape")

    def __init__(self, query: Query, error: Optional[str],
                 plan: Optional[CompiledPlan], token, shape: str):
        self.query = query
        self.error = error
        self.plan = plan
        self.token = token
        self.shape = shape

    def __repr__(self) -> str:
        return (f"PlanEntry({str(self.query)!r}, shape={self.shape},"
                f" error={self.error is not None})")


class PlanCache:
    """Canonical-form keyed LRU cache of parsed + compiled queries.

    One instance per :class:`~repro.db.Database`, **shared** with every
    snapshot it publishes, so the serving layer's readers reuse plans
    across snapshot publications and a replica process keeps its plans
    warm across requests.
    Thread-safe: one lock guards each ordered map; entry revalidation
    publishes complete plans before bumping the entry version, so a
    concurrent reader either sees a matching (plan, version) pair or
    recompiles for its own view.
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError("plan cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.recompiles = 0
        self._parses: "OrderedDict[str, Query]" = OrderedDict()
        self._entries: "OrderedDict[tuple, PlanEntry]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Parse memo (both engines)
    # ------------------------------------------------------------------
    def parsed(self, text: str) -> Tuple[str, Query]:
        """``(canonical key, parsed query)`` — parsing at most once per
        canonical spelling.  Used directly by the reference engine,
        and by :meth:`entry` on a plan miss."""
        key = canonical_text(text)
        with self._lock:
            query = self._parses.get(key)
            if query is not None:
                self._parses.move_to_end(key)
                self.hits += 1
                hit = True
            else:
                self.misses += 1
                hit = False
        self._count(hit)
        if query is None:
            query = parse_query(key)
            with self._lock:
                self._parses[key] = query
                while len(self._parses) > self.maxsize:
                    self._parses.popitem(last=False)
        return key, query

    def parse(self, text: str) -> Query:
        """The parsed query for ``text`` through the same memo, without
        moving ``hits`` / ``misses``: for a caller that is not making a
        plan lookup (``Database.probe``, which only needs the
        conjunctive core)."""
        return self._parse_uncounted(canonical_text(text))

    def _parse_uncounted(self, key: str) -> Query:
        with self._lock:
            query = self._parses.get(key)
        if query is None:
            query = parse_query(key)
            with self._lock:
                self._parses[key] = query
                while len(self._parses) > self.maxsize:
                    self._parses.popitem(last=False)
        return query

    # ------------------------------------------------------------------
    # Plan entries (compiled engine)
    # ------------------------------------------------------------------
    def entry(self, query: Union[str, Query], view, epoch,
              token) -> PlanEntry:
        """The cached entry for ``query`` under configuration ``epoch``,
        building parse + safety + plan on a miss.

        ``token`` is the caller's data token (see
        :class:`PlanEntry`); it does *not* participate in the cache key
        — a moved token revalidates the existing entry's plan in
        :meth:`plan_for` instead of inserting a duplicate."""
        if isinstance(query, str):
            key = canonical_text(query)
            parsed = None
        else:
            key = str(query)
            parsed = query
        cache_key = (key, epoch)
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is not None:
                self._entries.move_to_end(cache_key)
                self.hits += 1
            else:
                self.misses += 1
        self._count(entry is not None)
        if entry is not None:
            return entry
        if parsed is None:
            parsed = self._parse_uncounted(key)
        error: Optional[str] = None
        plan: Optional[CompiledPlan] = None
        shape = "error"
        try:
            check_safety(parsed.formula)
        except QueryError as exc:
            error = str(exc)
        if error is None:
            plan = compile_query(parsed, view)
            shape = classify(plan)
            if getattr(view.store, "interned", False):
                annotate_plan_ids(plan, view.store)
        entry = PlanEntry(parsed, error, plan, token, shape)
        with self._lock:
            self._entries[cache_key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry

    def plan_for(self, entry: PlanEntry, view, token) -> CompiledPlan:
        """The entry's plan, revalidated against the caller's data
        token.

        A moved token means the planner's estimates — and any
        provably-empty hints lowered into the plan — may no longer
        hold, so the query is recompiled against the caller's own view
        and the refreshed plan is published back to the entry (plan
        first, token second, so a concurrent reader at a different
        version can never pair a fresh plan with a stale check).
        """
        if entry.token == token:
            return entry.plan
        plan = compile_query(entry.query, view)
        if getattr(view.store, "interned", False):
            annotate_plan_ids(plan, view.store)
        self.recompiles += 1
        if _obs.ENABLED:
            _obs.TELEMETRY.count("plancache.recompiles")
        entry.plan = plan
        entry.token = token
        return plan

    # ------------------------------------------------------------------
    @staticmethod
    def _count(hit: bool) -> None:
        if _obs.ENABLED:
            _obs.TELEMETRY.count(
                "plancache.hits" if hit else "plancache.misses")

    def clear(self) -> None:
        """Drop every parse and plan entry (statistics are kept)."""
        with self._lock:
            self._parses.clear()
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/recompile totals plus current sizes."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "recompiles": self.recompiles,
                "entries": len(self._entries),
                "parses": len(self._parses),
                "maxsize": self.maxsize,
            }

    def __repr__(self) -> str:
        return (f"PlanCache({len(self._entries)}/{self.maxsize},"
                f" {self.hits} hits, {self.misses} misses)")
