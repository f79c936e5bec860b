"""Shape-classified plan cache and the point-read fast path.

The paper's browsing loop (navigate, probe, retract) is dominated by
µs-scale single-atom queries, where the set-at-a-time executor's fixed
costs — parse, safety check, plan lowering, binding-table setup —
outweigh the actual probe.  This module removes all of them from the
hot path:

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
* **Shape classifier + fast path** — single-atom plans (the classifier
  shapes ``point``/``star``/``scan``) are routed to a
  :class:`FastProbe`: a pre-bound probe that calls the interned store's
  bisect indexes (or the hash store's positional index) directly, with
  no binding-table setup and no per-row allocation beyond the output
  tuples.  The binding — generation, interned constant ids, index
  handle — is resolved once at cache-insert time and revalidated
  against store identity and version on every call; a store mutation or
  an interned-store compaction forces a rebind (``plancache.rebinds``).

Hit/miss totals are exposed as attributes and as the
``plancache.hits`` / ``plancache.misses`` telemetry counters —
mirroring :mod:`repro.core.cache`.

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
from typing import Iterable, List, Optional, Set, Tuple, Union

from ..core import deadline as _deadline
from ..core.errors import QueryError
from ..core.facts import Fact, Template, Variable
from ..obs import telemetry as _obs
from .ast import Query
from .canonical import canonical_text
from .compile import (AtomJoin, CompiledPlan, annotate_plan_ids,
                      compile_query)
from .evaluate import check_safety
from .parser import parse_query

#: Process-wide switch for the single-atom fast path.  The equivalence
#: suite flips this off to assert the routed and unrouted paths return
#: identical answers and errors; plans stay cached either way.
FAST_PATH = True


def classify(plan: CompiledPlan) -> str:
    """The plan's shape label, used for routing and observability.

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

    Single-atom shapes (``point``/``star``/``scan``) are eligible for
    the :class:`FastProbe` routing; the rest run the compiled plan.
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


class FastProbe:
    """A pre-bound single-atom probe: the zero-allocation fast path.

    Built once at plan-cache insert time from the plan's only
    :class:`~repro.query.compile.AtomJoin`.  The immutable parts —
    ground components, position spec, output extraction positions,
    repeated-variable equality checks, contributing virtual relations —
    are resolved here; the store-dependent parts (the interned
    generation and constant ids, or the hash store's candidate set) are
    bound lazily and revalidated against ``(store identity, store
    version)`` on every call, so mutations and compactions can never
    serve a stale index.
    """

    __slots__ = ("pattern", "shape", "s", "r", "t", "spec",
                 "out_positions", "checks", "handlers", "_bound", "_lock")

    def __init__(self, pattern: Template, shape: str,
                 out_positions: List[int],
                 checks: List[Tuple[int, int]], handlers: list):
        self.pattern = pattern
        self.shape = shape
        components = tuple(pattern)
        self.s = components[0] \
            if not isinstance(components[0], Variable) else None
        self.r = components[1] \
            if not isinstance(components[1], Variable) else None
        self.t = components[2] \
            if not isinstance(components[2], Variable) else None
        self.spec = "".join(
            letter for letter, value in (("s", self.s), ("r", self.r),
                                         ("t", self.t))
            if value is not None)
        self.out_positions = out_positions
        self.checks = checks
        self.handlers = handlers
        self._bound = None
        self._lock = threading.Lock()

    @classmethod
    def build(cls, plan: CompiledPlan, view) -> Optional["FastProbe"]:
        """A probe for a single-atom plan, or ``None`` for any other
        shape.  Requires a safety-checked query (the caller's plan
        cache only builds probes for entries without a cached error)."""
        root = plan.root
        if not isinstance(root, AtomJoin):
            return None
        pattern = root.formula.pattern
        components = tuple(pattern)
        first_occurrence = {}
        checks: List[Tuple[int, int]] = []
        for index, component in enumerate(components):
            if isinstance(component, Variable):
                if component in first_occurrence:
                    checks.append((first_occurrence[component], index))
                else:
                    first_occurrence[component] = index
        out_positions = [first_occurrence[v] for v in plan.query.variables]
        handlers = [relation for relation in view.virtual
                    if relation.handles(pattern)]
        return cls(pattern, classify(plan), out_positions, checks,
                   handlers)

    # ------------------------------------------------------------------
    # Binding (resolved at insert / first use, revalidated per call)
    # ------------------------------------------------------------------
    def bind(self, store) -> tuple:
        """Resolve the probe's candidate set for ``store``.

        For an interned store the generation's bisect index is walked
        *now* — constants interned, positions resolved, facts decoded,
        tombstones filtered, overlay merged — so later calls only
        iterate the memoized list.  Hash stores hand out their live
        indexed candidate set directly.  Both are safe to memoize
        because every mutation moves ``store.version``, and
        :meth:`_binding` revalidates ``(store identity, version)`` on
        each call — a mutation or an interned-store compaction forces
        a rebind (``plancache.rebinds``).
        """
        if getattr(store, "interned", False):
            facts: List[Fact] = []
            generation = store.generation
            if generation is not None:
                resolved = store._spec_ids(self.s, self.r, self.t)
                if resolved is not None:
                    fact_at = generation.fact_at
                    removed = store._removed
                    positions = generation.positions(*resolved)
                    if removed:
                        facts = [fact for fact in map(fact_at, positions)
                                 if fact not in removed]
                    else:
                        facts = [fact_at(p) for p in positions]
            if len(store._overlay):
                facts += store._overlay.lookup(self.s, self.r, self.t)
            bound = (store, store.version, facts)
        else:
            bound = (store, store.version,
                     store.lookup(self.s, self.r, self.t))
        with self._lock:
            self._bound = bound
        return bound

    def _binding(self, store) -> tuple:
        bound = self._bound
        if bound is None or bound[0] is not store \
                or bound[1] != store.version:
            bound = self.bind(store)
            if _obs.ENABLED:
                _obs.TELEMETRY.count("plancache.rebinds")
        return bound

    def _stored_facts(self, store) -> Iterable[Fact]:
        """Stored candidates for the pattern's ground positions, via
        the pre-bound handle (exact up to repeated-variable checks)."""
        return self._binding(store)[2]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, view) -> Set[Tuple[str, ...]]:
        """The projected answer set — identical to executing the
        compiled plan and projecting onto the query variables."""
        if _deadline.ACTIVE:
            _deadline.check()
        out_positions = self.out_positions
        checks = self.checks
        results: Set[Tuple[str, ...]] = set()
        add = results.add
        if checks:
            for fact in self._stored_facts(view.store):
                if all(fact[i] == fact[j] for i, j in checks):
                    add(tuple(fact[p] for p in out_positions))
        else:
            for fact in self._stored_facts(view.store):
                add(tuple(fact[p] for p in out_positions))
        if self.handlers:
            self._merge_virtual(view, add)
        return results

    def any(self, view) -> bool:
        """True when the answer set is non-empty (``ask`` /
        ``succeeds``), stopping at the first witness."""
        if _deadline.ACTIVE:
            _deadline.check()
        checks = self.checks
        for fact in self._stored_facts(view.store):
            if not checks or all(fact[i] == fact[j] for i, j in checks):
                return True
        if self.handlers:
            witness: List[bool] = []
            self._merge_virtual(view, lambda _value: witness.append(True),
                                stop_early=True)
            return bool(witness)
        return False

    def _merge_virtual(self, view, add, stop_early: bool = False) -> None:
        """Fold in virtual contributions, re-checked against the
        pattern exactly as the compiled executor's batch probe does."""
        pattern = self.pattern
        out_positions = self.out_positions
        store = view.store
        for relation in self.handlers:
            for fact in relation.facts(pattern, store):
                if pattern.match(fact) is not None:
                    add(tuple(fact[p] for p in out_positions))
                    if stop_early:
                        return


class PlanEntry:
    """One cached query: the parsed form, the compiled plan (or the
    cached static :class:`~repro.core.errors.QueryError` message), the
    shape label, and — for single-atom shapes — the pre-bound
    :class:`FastProbe`.

    ``token`` is the answer-version token the plan was lowered under
    (the database's ``(base version, epoch, limit)`` cache token): any
    base mutation moves it, which is what lets :meth:`PlanCache.plan_for`
    trust planner estimates and provably-empty hints while it matches.
    """

    __slots__ = ("key", "query", "error", "plan", "token", "shape",
                 "fast")

    def __init__(self, key: str, query: Query, error: Optional[str],
                 plan: Optional[CompiledPlan], token,
                 shape: str, fast: Optional[FastProbe]):
        self.key = key
        self.query = query
        self.error = error
        self.plan = plan
        self.token = token
        self.shape = shape
        self.fast = fast

    def __repr__(self) -> str:
        return (f"PlanEntry({self.key!r}, shape={self.shape},"
                f" fast={self.fast is not None},"
                f" error={self.error is not None})")


class PlanCache:
    """Canonical-form keyed LRU cache of parsed + compiled queries.

    One instance per :class:`~repro.db.Database`, **shared** with every
    snapshot it publishes (like the versioned result cache), so the
    serving layer's readers reuse plans across snapshot publications
    and a replica process keeps its plans warm across requests.
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
        self.verdict_hits = 0
        self.verdict_misses = 0
        self._parses: "OrderedDict[str, Query]" = OrderedDict()
        self._entries: "OrderedDict[tuple, PlanEntry]" = OrderedDict()
        self._verdicts: dict = {}
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
        building parse + safety + plan + fast probe on a miss.

        ``token`` is the caller's answer-version token (see
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
        fast: Optional[FastProbe] = None
        try:
            check_safety(parsed.formula)
        except QueryError as exc:
            error = str(exc)
        if error is None:
            plan = compile_query(parsed, view)
            shape = classify(plan)
            fast = FastProbe.build(plan, view)
            if fast is not None:
                fast.bind(view.store)
            if getattr(view.store, "interned", False):
                annotate_plan_ids(plan, view.store)
        entry = PlanEntry(key, parsed, error, plan, token, shape, fast)
        with self._lock:
            self._entries[cache_key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry

    def plan_for(self, entry: PlanEntry, view, token) -> CompiledPlan:
        """The entry's plan, revalidated against the caller's answer
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
    # Verdict memo (ask / succeeds)
    # ------------------------------------------------------------------
    def cached_verdict(self, kind: str, text: str, epoch, token):
        """The memoized boolean for ``ask``/``succeeds`` on ``text``,
        or ``None`` on a miss.

        Verdicts skip even the plan-entry lookup and canonicalization —
        the dominant fixed costs of a warm truth query — keyed on the
        raw query text.  Reads are lock-free (a GIL-atomic dict get);
        staleness is impossible because the stored value carries the
        epoch and answer-version token it was computed under, and both
        must match exactly.  Disabled while :data:`FAST_PATH` is off so
        the equivalence suite always exercises the real paths.
        """
        if not FAST_PATH:
            return None
        stored = self._verdicts.get((kind, text))
        if stored is not None and stored[0] == epoch \
                and stored[1] == token:
            self.verdict_hits += 1
            return stored[2]
        self.verdict_misses += 1
        return None

    def store_verdict(self, kind: str, text: str, epoch, token,
                      verdict: bool) -> None:
        """Memoize a computed truth value under its epoch + token."""
        verdicts = self._verdicts
        if len(verdicts) >= 4 * self.maxsize:
            verdicts.clear()  # crude, rare: tokens churn entries anyway
        verdicts[(kind, text)] = (epoch, token, verdict)

    # ------------------------------------------------------------------
    @staticmethod
    def _count(hit: bool) -> None:
        if _obs.ENABLED:
            _obs.TELEMETRY.count(
                "plancache.hits" if hit else "plancache.misses")

    def clear(self) -> None:
        """Drop every parse, plan, and verdict entry (statistics are
        kept)."""
        with self._lock:
            self._parses.clear()
            self._entries.clear()
            self._verdicts.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/recompile totals plus current sizes."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "recompiles": self.recompiles,
                "verdict_hits": self.verdict_hits,
                "verdict_misses": self.verdict_misses,
                "entries": len(self._entries),
                "parses": len(self._parses),
                "verdicts": len(self._verdicts),
                "maxsize": self.maxsize,
            }

    def __repr__(self) -> str:
        return (f"PlanCache({len(self._entries)}/{self.maxsize},"
                f" {self.hits} hits, {self.misses} misses)")
