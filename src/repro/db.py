"""The public facade: a loosely structured database (paper §2.6).

"A loosely structured database is a set of facts P and a set of rules
R, such that the closure of P under R is free of contradictions."

:class:`Database` owns the base fact heap, the rule registry, the
composition limit, and a cached closure; it exposes the standard query
language (§2.7), navigation (§4), probing (§5), and the §6.1 operators.

Example::

    from repro import Database

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    db.add("EMPLOYEE", "EARNS", "SALARY")
    db.query("(JOHN, EARNS, y)")        # {("SALARY",)}
    print(db.navigate("(JOHN, *, *)").render())
"""

from __future__ import annotations

import itertools
from typing import (
    Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from .browse.lattice import ISA_PATTERN, GeneralizationLattice
from .browse.navigation import NavigationResult, NavigationSession, navigate
from .browse.retraction import DEFAULT_MAX_WAVES, ProbeResult, probe
from .core.entities import (
    CONTRA, EQ, GE, GT, INV, ISA, LE, LT, NE,
    CLASS_RELATIONSHIP, COMPOSITION_OFF, INDIVIDUAL_RELATIONSHIP, MEMBER,
)
from .core.errors import IntegrityError, QueryError
from .core.facts import Fact, Template, fact as make_fact
from .core.heap import heap_build
from .core.interned import InternedFactStore, fold, refound
from .operators.definitions import OperatorRegistry
from .operators.ops import (
    FunctionView,
    RelationTable,
    relation as relation_op,
    try_ as try_op,
)
from .query.ast import Query
from .query.exec import CompiledEvaluator
from .query.parser import parse_query_memo, parse_template
from .rules.dispatch import ClosureResult, dispatched_closure, extend_closure
from .rules.integrity import Diagnosis, Violation, diagnose, find_contradictions
from .rules.deletion import DeletionStats, delete_with_rederivation
from .rules.provenance import (
    COMPOSITION_RULE,
    DerivationTree,
    ProvenanceError,
    explain_fact,
)
from .rules.registry import RuleRegistry
from .rules.rule import RelationshipClassifier, Rule, RuleContext
from .virtual.computed import FactView, VirtualRegistry
from .virtual.special import standard_virtual_registry
from .views import ViewCatalog, ViewDefinition

#: Facts every database is seeded with (unless ``with_axioms=False``):
#: ``↔`` and ``⊥`` are their own inverses (§3.4, §3.5), and the
#: mathematical comparators are pairwise contradictory (§3.5–3.6).
AXIOM_FACTS: Tuple[Fact, ...] = (
    Fact(INV, INV, INV),
    Fact(CONTRA, INV, CONTRA),
    Fact(LT, CONTRA, GT),
    Fact(LT, CONTRA, EQ),
    Fact(GT, CONTRA, EQ),
    Fact(EQ, CONTRA, NE),
    Fact(LE, CONTRA, GT),
    Fact(GE, CONTRA, LT),
)


class Database:
    """A heap of facts plus rules, with browsing as the principal
    retrieval method."""

    def __init__(self, facts: Iterable[Fact] = (), *,
                 with_axioms: bool = True,
                 auto_check: bool = False,
                 query_engine: str = "compiled",
                 trace: bool = False):
        """
        Args:
            facts: initial facts.
            with_axioms: seed :data:`AXIOM_FACTS`.
            auto_check: verify the closure stays contradiction-free on
                every mutation (rolls the mutation back on violation).
            query_engine: ``"compiled"`` (default; the set-at-a-time
                plan executor of :mod:`repro.query.exec`) or
                ``"reference"`` (the tuple-at-a-time backtracking
                evaluator).  Both produce identical query values.
            trace: record derivation provenance so :meth:`why` can
                show why any closure fact holds (small time/memory
                overhead on closure computation).
        """
        if query_engine not in ("compiled", "reference"):
            raise ValueError(f"unknown query engine: {query_engine!r}")
        # The base heap is one interned generation from birth, at the
        # version adding its distinct facts one by one would leave.
        initial = dict.fromkeys(itertools.chain(
            AXIOM_FACTS if with_axioms else (), facts))
        self._base = InternedFactStore.from_facts(initial, len(initial))
        self.rules = RuleRegistry()
        self.operators = OperatorRegistry()
        self._view_definitions: Dict[str, ViewDefinition] = {}
        self.query_engine = query_engine
        self.auto_check = auto_check
        self.trace = trace
        self._composition_limit: Optional[int] = COMPOSITION_OFF
        self._virtual = standard_virtual_registry()
        # The closure under the standard rules, cached and maintained
        # incrementally; composition facts are the view's to compute.
        self._standard_result: Optional[ClosureResult] = None
        self._view: Optional[FactView] = None
        # The generalization lattice (browse.lattice) is maintained,
        # not rebuilt: insertions that derive new ≺ facts patch it in
        # place, mutations that touch no ≺ fact leave it alone, and
        # only ≺ deletions / full invalidations drop it.
        self._hierarchy: Optional[GeneralizationLattice] = None
        self._hierarchy_bound: Optional[GeneralizationLattice] = None
        self._hierarchy_shared = False
        self._hierarchy_isa = -1
        # Insertions since the last hierarchy() may have derived ≺ facts.
        self._hierarchy_stale = False
        self._hierarchy_rebuilds = 0
        self._hierarchy_patches = 0
        self._on_mutation = None  # set by storage.DurableSession.attach
        # Set to a list by a serving writer for one batch: incremental
        # maintenance appends the closure's net change to it as
        # ("add" | "remove", fact) entries, and an invalidation sets it
        # back to None — that batch recomputes the closure.
        self._closure_log: Optional[List[Tuple[str, Fact]]] = None

    @property
    def views(self) -> ViewCatalog:
        """The named §6.1 views over this database.  The database keeps
        their definitions; the catalog is bound on access, so it is
        never part of a reference cycle with the database."""
        return ViewCatalog(self, self._view_definitions)

    # ------------------------------------------------------------------
    # Facts
    # ------------------------------------------------------------------
    @property
    def facts(self) -> InternedFactStore:
        """The base fact heap (stored facts only, no closure)."""
        return self._base

    def __len__(self) -> int:
        return len(self._base)

    def __contains__(self, item: Fact) -> bool:
        """Membership in the *closure* (stored, derived, or virtual)."""
        return item in self.view()

    def add(self, source: str, relationship: str, target: str) -> bool:
        """Add one fact from its three components."""
        return self.add_fact(make_fact(source, relationship, target))

    def add_fact(self, new_fact: Fact) -> bool:
        """Add a fact; returns True if it was new.

        With ``auto_check`` enabled, an addition whose closure would
        contain a contradiction is rolled back and raises
        :class:`~repro.core.errors.IntegrityError` (§2.6: the closure
        must be free of contradictions).
        """
        if not self._base.add(new_fact):
            return False
        if self._can_extend_incrementally(new_fact):
            self._closure_changed(extend_closure(
                self._standard_result, (new_fact,), list(self.rules),
                self.rule_context(), compiled=self.rules.compiled()), ())
        else:
            self._invalidate()
        if self.auto_check:
            violations = self.check_integrity()
            if violations:
                self._base.discard(new_fact)
                self._invalidate()
                raise IntegrityError(
                    f"adding {new_fact} contradicts the closure",
                    violations)
        if self._on_mutation is not None:
            self._on_mutation("add", new_fact)
        return True

    def _can_extend_incrementally(self, new_fact: Fact) -> bool:
        """True if the cached closure can be maintained in place.

        Insertions are monotone under the standard rules *except* for
        relationship re-classification: declaring ``(r, ∈, R_c)``
        retroactively blocks inferences already drawn, so those
        declarations force recomputation.
        """
        return self._standard_result is not None and not (
            new_fact.relationship == MEMBER and new_fact.target in (
                CLASS_RELATIONSHIP, INDIVIDUAL_RELATIONSHIP))

    def _isa_count(self) -> int:
        """How many ``≺`` facts the standard closure holds (an index
        length, O(1))."""
        return self._standard_result.store.count_estimate(ISA_PATTERN)

    def add_facts(self, new_facts: Iterable[Fact]) -> int:
        """Add many facts; returns the number actually new."""
        return sum(1 for f in new_facts if self.add_fact(f))

    def remove_fact(self, old_fact: Fact) -> bool:
        """Remove a stored fact; returns True if it was present.

        A cached closure is updated by Delete/Rederive
        (:mod:`repro.rules.deletion`) instead of being recomputed.
        """
        if not self._base.discard(old_fact):
            return False
        if self._can_extend_incrementally(old_fact):
            self._closure_changed((), delete_with_rederivation(
                self._standard_result, self._base, old_fact,
                list(self.rules), self.rule_context(),
                compiled=self.rules.compiled()).removed)
        else:
            self._invalidate()
        if self._on_mutation is not None:
            self._on_mutation("remove", old_fact)
        return True

    def apply_delta(self, delta) -> Tuple[int, int]:
        """Apply one replicated batch record, derived once already.

        This is the replica-side entry point of the log-shipping
        design (:mod:`repro.serve.replica`).  ``delta`` is a
        :class:`~repro.serve.replica.Delta`: the primary's writer
        coalesced its batch into the net base ``adds`` / ``removes``
        and the net change the batch's incremental maintenance made to
        the standard closure (``closure_adds`` / ``closure_removes``),
        plus the closure statistics it left.  Both halves are applied
        here as plain store operations, removals first, and no rule
        runs: the primary derived them.  The record must carry a
        closure half and this database must hold the closure it
        applies to: a replica attached one, and a batch that
        recomputed the closure (``closure_stats`` is ``None``) reaches
        it as generations to attach, never as a record.

        Set operations make application idempotent: re-adding a
        present fact and re-removing an absent one are no-ops, so a
        bootstrap that already reflects a prefix of the delta log can
        replay the overlapping suffix and end where the primary did.
        Returns the base ``(added, removed)`` counts.
        """
        base = self._base
        removed = sum(1 for f in delta.removes if base.discard(f))
        added = sum(1 for f in delta.adds if base.add(f))
        result = self._standard_result
        stats = delta.closure_stats
        store = result.store
        for f in delta.closure_removes:
            store.discard(f)
        for f in delta.closure_adds:
            store.add(f)
        result.base_count = stats["base_count"]
        result.derived_count = stats["derived_count"]
        result.iterations = stats["iterations"]
        result.rule_firings = dict(stats["rule_firings"])
        result.rule_times = dict(stats["rule_times"])
        self._closure_changed(delta.closure_adds, delta.closure_removes)
        return added, removed

    def _closure_changed(self, added: Sequence[Fact],
                         removed: Sequence[Fact]) -> None:
        """The one bookkeeping tail after the standard closure gained
        ``added`` and lost ``removed`` in place — by an insertion, a
        Delete/Rederive or a replicated record.  The view rebuilds
        lazily from it.  New ``≺`` facts are patched into the lattice
        by the next :meth:`hierarchy`, once
        for however many mutations came first; a lost one drops it
        (the lattice cannot un-ingest a pair), and the next call
        rebuilds.  A serving writer's log gets the change."""
        self._view = None
        if any(f.relationship == ISA for f in removed):
            self._hierarchy = None
            self._hierarchy_bound = None
            self._hierarchy_isa = -1
        elif any(f.relationship == ISA for f in added):
            self._hierarchy_stale = True
        log = self._closure_log
        if log is not None:
            log += [("remove", f) for f in removed]
            log += [("add", f) for f in added]

    # ------------------------------------------------------------------
    # Snapshots (repro.serve)
    # ------------------------------------------------------------------
    def snapshot(self) -> "Database":
        """A read-only, point-in-time clone for concurrent readers.

        The clone's base heap is an independent
        :meth:`InternedFactStore.copy
        <repro.core.interned.InternedFactStore.copy>` — it shares the
        generation and duplicates only the overlay — frozen, so any
        mutation attempt raises
        :class:`~repro.core.errors.FrozenStoreError`; the cached
        closure is copied the same way so later incremental
        maintenance of *this* database cannot tear them, and the rule
        registry state is duplicated.  No plan and no answer is carried
        over: a snapshot lowers and computes every read it is asked,
        against its own view.

        This is the publication primitive of
        :class:`repro.serve.DatabaseService`: the single writer mutates
        the master database, then publishes ``master.snapshot()`` for
        readers to use lock-free.  The generalization lattice is not
        copied: if this database holds one (``hierarchy()`` was called
        since the last ``≺`` deletion), the clone shares its structure
        and this database switches to copy-on-patch; if it holds none,
        the clone builds its own on its first probe.  The service
        therefore warms ``view()`` *and* ``hierarchy()`` on the master
        before every snapshot, and binds both on the clone, so a
        published snapshot never rebuilds
        (``stats()["hierarchy"]["rebuilds"] == 0``).  Whatever lazy
        cache a snapshot still has to fill is benignly racy —
        concurrent readers may compute it twice, but every computed
        value is identical.
        """
        clone = Database.__new__(Database)
        clone._base = self._base.copy().freeze()
        clone.rules = RuleRegistry(self.rules.all_rules())
        clone.rules.restore_state(self.rules.snapshot_state())
        clone.rules._compiled = self.rules._compiled  # reuse compilation
        clone.operators = self.operators
        clone._view_definitions = dict(self._view_definitions)
        clone.query_engine = self.query_engine
        clone.auto_check = False       # snapshots never mutate
        clone.trace = self.trace
        clone._composition_limit = self._composition_limit
        clone._virtual = self._virtual
        clone._standard_result = self._copy_result(self._standard_result)
        clone._view = None
        # The lattice structure is shared with the clone; the master
        # switches to copy-on-patch so a published snapshot can never
        # observe a half-applied patch.
        clone._hierarchy = self._hierarchy
        clone._hierarchy_bound = None
        clone._hierarchy_isa = self._hierarchy_isa
        clone._hierarchy_stale = self._hierarchy_stale
        clone._hierarchy_shared = self._hierarchy is not None
        clone._hierarchy_rebuilds = 0
        clone._hierarchy_patches = 0
        if self._hierarchy is not None:
            self._hierarchy_shared = True
        clone._on_mutation = None
        clone._closure_log = None
        return clone

    @staticmethod
    def _copy_result(result: Optional[ClosureResult]) \
            -> Optional[ClosureResult]:
        """An independent copy of a cached closure result (the store is
        copied and frozen; statistics are duplicated)."""
        if result is None:
            return None
        return ClosureResult(
            store=result.store.copy().freeze(),
            base_count=result.base_count,
            derived_count=result.derived_count,
            iterations=result.iterations,
            rule_firings=dict(result.rule_firings),
            rule_times=dict(result.rule_times),
            # Copied, not shared: incremental extension of the master
            # inserts into its provenance dict in place.
            provenance=(dict(result.provenance)
                        if result.provenance is not None else None),
        )

    def compact_store(self) -> "Database":
        """Fold the overlays of this database's heap and closure into one
        fresh interned columnar generation.

        Every store of a database reads one frozen
        :class:`~repro.core.interned.ColumnarGeneration` of interned-id
        arrays with CSR indexes and one flags byte per row — the base
        heap from construction, the closure from its first computation
        (:meth:`standard_closure`) — and mutations accumulate in each
        store's overlay (additions and tombstones).  A fold
        (:func:`~repro.core.interned.fold`) builds the closure's facts
        (the base heap's, while no closure is cached) into a new
        generation, each row carrying its ``STORED`` flag by position,
        and re-founds both stores on it with an empty overlay: the
        closure reads every row, the base heap its ``STORED`` rows
        (:class:`~repro.core.interned.FlaggedFactStore`; §2.6's fact set
        is a subset of its closure).  Stores that already read one
        generation with empty overlays are left as they are.  Store
        versions are preserved: the representation changes, the
        database state does not.

        Every probe merges the overlay, so reads slow as it grows; a
        fold pays one O(n log n) rebuild, decoding the old generation
        column by column, to make them integer probes again.  A
        :class:`~repro.serve.DatabaseService` folds its master on its
        writer whenever :attr:`overlay_size` exceeds
        :data:`~repro.core.interned.OVERLAY_BUDGET` (and once at
        construction, for a database handed over with overlays); a
        library caller mutating a database by hand decides when to call
        this — the same measure applies.  The rebuild is an O(heap)
        build (:func:`~repro.core.heap.heap_build`).  Returns ``self``.
        """
        result = self._standard_result
        stores = [self._base] + ([result.store] if result else [])
        top = stores[-1]
        if all(store.generation is top.generation
               and not store.overlay_size for store in stores):
            return self
        with heap_build():
            self._base, *folded = fold(stores)
            if result:
                result.store, = folded
            # Lazy caches hold references to the old stores; let them
            # rebuild over the interned ones on next use.  The lattice
            # survives: compaction changes the representation, not the
            # facts, so only its store binding must refresh — and the
            # structure lets go of the store it was built from, or a
            # fold's retired generation would live as long as the
            # lattice.
            self._view = None
            self._hierarchy_bound = None
            if self._hierarchy is not None:
                self._hierarchy = self._hierarchy.with_store(None)
        return self

    @property
    def overlay_size(self) -> int:
        """The larger overlay — additions plus tombstones outside the
        generation — of the base heap and the cached closure store:
        what a fold would clear."""
        result = self._standard_result
        return max(self._base.overlay_size,
                   result.store.overlay_size if result else 0)

    def store_shape(self) -> dict:
        """What sits inside the generation and what outside, over the
        base heap and the closure store (a generation they share counts
        once): a publish shares the first and copies the rest, and a
        read merges the rest into every probe."""
        stores = (self._base, self.closure().store)
        tombstones = sum(store.tombstones for store in stores)
        return {
            "generation_facts": sum(map(len, {
                store.generation for store in stores})),
            "overlay_facts": sum(store.overlay_size
                                 for store in stores) - tombstones,
            "tombstones": tombstones,
        }

    # ------------------------------------------------------------------
    # Relationship classification (§2.2)
    # ------------------------------------------------------------------
    def declare_class_relationship(self, relationship: str) -> bool:
        """Put a relationship into R_c (no inheritance to instances)."""
        return self.add(relationship, MEMBER, CLASS_RELATIONSHIP)

    def declare_individual_relationship(self, relationship: str) -> bool:
        """Put a relationship into R_i (the default)."""
        return self.add(relationship, MEMBER, INDIVIDUAL_RELATIONSHIP)

    # ------------------------------------------------------------------
    # Rules and composition (§3, §6.1)
    # ------------------------------------------------------------------
    def define_rule(self, name: str, text: str,
                    is_constraint: bool = False) -> Rule:
        """Define (and enable) a rule from text (§2.5–2.6)::

            db.define_rule("age-positive", "(x, in, AGE) => (x, >, 0)",
                           is_constraint=True)
            db.define_rule("sym", "(a, MARRIED-TO, b) => (b, MARRIED-TO, a)")
        """
        from .rules.parse import parse_rule

        rule = parse_rule(text, name, is_constraint=is_constraint)
        self.rules.include(rule)
        self._invalidate()
        return rule

    def include(self, rule: Union[str, Rule]) -> None:
        """Enable a rule — the paper's ``include(rule)``."""
        self.rules.include(rule)
        self._invalidate()

    def exclude(self, rule: Union[str, Rule]) -> None:
        """Disable a rule — the paper's ``exclude(rule)``."""
        self.rules.exclude(rule)
        self._invalidate()

    def limit(self, n: Optional[int]) -> None:
        """Bound composition chains — the paper's ``limit(n)`` (§6.1).

        ``limit(1)`` disables composition (the default); ``limit(None)``
        permits unlimited composition.  Composition facts are computed
        by the reads that ask for them
        (:class:`~repro.virtual.composition.Composition`); a change of
        limit still drops the cached closure.
        """
        if n is not None and n < 1:
            raise ValueError("composition limit must be >= 1 (or None)")
        self._composition_limit = n
        self._invalidate()

    @property
    def composition_limit(self) -> Optional[int]:
        return self._composition_limit

    @composition_limit.setter
    def composition_limit(self, n: Optional[int]) -> None:
        self.limit(n)

    # ------------------------------------------------------------------
    # Closure (§2.6)
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._standard_result = None
        self._view = None
        self._hierarchy = None
        self._hierarchy_bound = None
        self._hierarchy_isa = -1
        self._closure_log = None

    def rule_context(self) -> RuleContext:
        return RuleContext(classifier=RelationshipClassifier(self._base))

    @property
    def _composition_enabled(self) -> bool:
        return (self._composition_limit is None
                or self._composition_limit > COMPOSITION_OFF)

    def standard_closure(self) -> ClosureResult:
        """The closure under the enabled rules — the layer incremental
        maintenance extends in place.  Composition facts are never in
        it: :meth:`view` answers them.

        Building it from scratch is an O(heap) build
        (:func:`~repro.core.heap.heap_build`); a cached or
        incrementally maintained closure is not.  The engine grows a
        hash working store (:func:`~repro.core.store.seed_store`), and
        the build ends in one fold that consumes it
        (:meth:`InternedFactStore.consume
        <repro.core.interned.InternedFactStore.consume>`), flagging the
        facts the rounds derived; the base heap is re-founded on the
        other, ``STORED`` rows, its overlay folded in: base and closure
        read one generation with empty overlays.
        """
        if self._standard_result is None:
            with heap_build():
                derived: List[Fact] = []
                result = dispatched_closure(
                    self._base, list(self.rules), self.rule_context(),
                    trace=self.trace, compiled=self.rules.compiled(),
                    added=derived)
                result.store = InternedFactStore.consume(
                    result.store, derived)
                self._base = refound(
                    self._base, result.store.generation, stored=True)
                self._standard_result = result
        return self._standard_result

    def closure(self) -> ClosureResult:
        """The closure of the facts under the enabled rules
        (:meth:`standard_closure`), cached until the next mutation."""
        return self.standard_closure()

    def view(self) -> FactView:
        """Closure + virtual relations: what queries evaluate against.
        Under ``limit(n > 1)`` the relations include the composition
        facts of the closure
        (:class:`~repro.virtual.composition.Composition`), which are the
        view's closure too: they witness the endpoints, and their names
        are in the active domain."""
        if self._view is None:
            store = self.closure().store
            if self._composition_enabled:
                # Loaded by the first database that composes.
                from .virtual.composition import Composition

                composition = Composition(store, self._composition_limit)
                self._view = FactView(
                    store, VirtualRegistry([*self._virtual, composition]),
                    composition)
            else:
                self._view = FactView(store, self._virtual)
        return self._view

    def hierarchy(self) -> GeneralizationLattice:
        """The generalization lattice of the closure.

        Built lazily and then *maintained*: new ``≺`` facts derived by
        insertions since the last call are patched into the structure
        here, in one pass however many insertions there were; mutations
        that touch no generalization/synonym fact leave it untouched; a
        deletion that removes a ``≺`` fact drops it for a rebuild here;
        and the structure survives ``compact_store()`` and snapshot
        publication (snapshots share it copy-on-patch).  Returns a view
        bound to the current closure store, so ``knows`` and
        ``closest_known`` always see the live active domain.
        """
        store = self.view().closure
        if self._hierarchy is None:
            self._hierarchy = GeneralizationLattice.from_store(
                self._standard_result.store)
            self._hierarchy_bound = None
            self._hierarchy_shared = False
            self._hierarchy_isa = self._isa_count()
            self._hierarchy_rebuilds += 1
        elif self._hierarchy_stale \
                and self._isa_count() != self._hierarchy_isa:
            # Insertions only ever grow the closure's ≺ set (a deletion
            # that shrinks it drops the lattice), so a count other than
            # the one ingested means new pairs: patch them in, once for
            # however many insertions there were since the last call.
            lattice = self._hierarchy
            if self._hierarchy_shared:
                # Published snapshots hold this structure: patch a copy.
                lattice = lattice.structural_copy()
                self._hierarchy = lattice
                self._hierarchy_bound = None
                self._hierarchy_shared = False
            lattice.add_isa_pairs(
                (f.source, f.target) for f in
                self._standard_result.store.match(ISA_PATTERN))
            self._hierarchy_isa = self._isa_count()
            self._hierarchy_patches += 1
        self._hierarchy_stale = False
        bound = self._hierarchy_bound
        if bound is None or bound.store is not store \
                or not bound.shares_core(self._hierarchy):
            bound = self._hierarchy.with_store(store)
            self._hierarchy_bound = bound
        return bound

    # ------------------------------------------------------------------
    # Integrity (§2.5, §3.5)
    # ------------------------------------------------------------------
    def check_integrity(self) -> List[Violation]:
        """All contradictions in the closure (empty = consistent)."""
        return find_contradictions(self.view().closure)

    def verify(self) -> None:
        """Raise :class:`IntegrityError` unless the closure is free of
        contradictions."""
        violations = self.check_integrity()
        if violations:
            summary = "; ".join(str(v) for v in violations[:5])
            raise IntegrityError(
                f"{len(violations)} contradiction(s) in the closure:"
                f" {summary}", violations)

    def diagnose(self) -> List[Diagnosis]:
        """Trace every contradiction to the stored facts responsible
        (requires ``trace=True``) — what to remove to repair §2.6's
        "free of contradictions" invariant."""
        violations = self.check_integrity()
        if not violations:
            return []
        if self.closure().provenance is None:
            raise ProvenanceError(
                "diagnosis needs provenance — create the database with"
                " Database(trace=True)")
        return diagnose(violations, self._base, self._explain)

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    def why(self, fact: Union[Fact, str]) -> DerivationTree:
        """The derivation tree of a closure fact (requires
        ``trace=True``).

        Accepts a :class:`Fact` or template text such as
        ``"(JOHN, EARNS, SALARY)"`` (which must be ground).  Virtual
        facts (mathematical, endpoint) are reported as ``[virtual]``
        leaves.
        """
        if isinstance(fact, str):
            fact = parse_template(fact).to_fact()
        if fact in self._base:
            return DerivationTree(fact=fact, rule=None)
        if self.closure().provenance is None:
            raise ProvenanceError(
                "provenance tracing is off — create the database with"
                " Database(trace=True)")
        try:
            return self._explain(fact)
        except ProvenanceError:
            if fact in self.view():
                return DerivationTree(fact=fact, rule="virtual")
            raise ProvenanceError(f"{fact} is not in the closure") from None

    def _explain(self, fact: Fact) -> DerivationTree:
        """The derivation tree of a stored, derived or composed fact
        (with provenance on): a composed one joins the two facts its
        name splits into
        (:meth:`~repro.virtual.composition.Composition.split`)."""
        provenance = self.closure().provenance
        if fact in self._base or fact in provenance:
            return explain_fact(fact, self._base, provenance)
        view = self.view()
        split = (view.closure.split(fact)
                 if view.closure is not view.store and fact in view.closure
                 else None)
        if split is None:
            raise ProvenanceError(
                f"{fact} is not stored and has no recorded justification")
        return DerivationTree(fact=fact, rule=COMPOSITION_RULE,
                              premises=tuple(map(self._explain, split)))

    # ------------------------------------------------------------------
    # Standard queries (§2.7)
    # ------------------------------------------------------------------
    def evaluator(self):
        """The configured engine's evaluator over the current view."""
        if self.query_engine == "compiled":
            return CompiledEvaluator(self.view())
        from .query.evaluate import Evaluator
        return Evaluator(self.view())

    def query(self, query: Union[str, Query]) -> Set[tuple]:
        """The value {Q} of a query: the set of satisfying tuples.

        Text goes straight to the evaluator, which parses it through
        the parse memo (:func:`~repro.query.parser.parse_query_memo`)
        and lowers a plan for this call alone.
        """
        return self.evaluator().evaluate(query)

    def ask(self, query: Union[str, Query]) -> bool:
        """Truth value of a proposition (closed formula)."""
        return self.evaluator().ask(query)

    def succeeds(self, query: Union[str, Query]) -> bool:
        """True if the query has a non-empty value — the §5 probe
        predicate (a query *fails* when it succeeds for no tuple)."""
        return self.evaluator().succeeds(query)

    def match(self, pattern: Union[str, Template]) -> List[Fact]:
        """All closure facts matching one template."""
        if isinstance(pattern, str):
            pattern = parse_template(pattern)
        return sorted(set(self.view().match(pattern)))

    # ------------------------------------------------------------------
    # Browsing (§4, §5)
    # ------------------------------------------------------------------
    def navigate(self, pattern: Union[str, Template]) -> NavigationResult:
        """One navigation (star-template) query."""
        return navigate(self.view(), pattern)

    def session(self) -> NavigationSession:
        """Start an interactive navigation session."""
        return NavigationSession(self.view())

    def probe(self, query: Union[str, Query],
              max_waves: int = DEFAULT_MAX_WAVES,
              engine: Optional[str] = None) -> ProbeResult:
        """Evaluate with automatic retraction on failure (§5.2).

        By default the retraction search runs through the configured
        ``query_engine``.  ``engine`` (``"compiled"`` /
        ``"reference"``) is the equivalence suite's escape hatch: it
        probes through an evaluator of that engine instead.
        """
        if isinstance(query, str):
            # One parse per spelling, shared with query / ask.
            query = parse_query_memo(query)
        if engine is None:
            evaluator = self.evaluator()
        elif engine == "compiled":
            evaluator = CompiledEvaluator(self.view())
        elif engine == "reference":
            from .query.evaluate import Evaluator
            evaluator = Evaluator(self.view())
        else:
            raise ValueError(f"unknown query engine: {engine!r}")
        return probe(evaluator, query, self.hierarchy(),
                     max_waves=max_waves)

    # ------------------------------------------------------------------
    # Operators (§6.1)
    # ------------------------------------------------------------------
    def try_(self, entity: str) -> List[Fact]:
        """``try(e)``: every fact mentioning the entity."""
        return try_op(self.view(), entity)

    def relation(self, class_entity: str,
                 *columns: Tuple[str, str]) -> RelationTable:
        """``relation(s, r1 t1, …)``: a structured (non-1NF) view."""
        return relation_op(self.view(), class_entity, *columns)

    def function(self, relationship: str) -> FunctionView:
        """View a relationship through the functional model (§6.1)."""
        return FunctionView(self.view(), relationship)

    def explain(self, query: Union[str, Query]):
        """Explain how a query will be evaluated (planner order,
        estimates, safety; plus the compiled operator tree when the
        compiled engine is active)."""
        from .query.explain import explain as explain_query
        return explain_query(self.view(), query,
                             engine=self.query_engine)

    def explain_analyze(self, query: Union[str, Query]):
        """Run a query under a scoped spine and report the plan next
        to what actually executed: per-operator (compiled) or
        per-conjunct (reference) estimated cost vs rows produced,
        wall/CPU time, and evaluator counters."""
        from .query.explain import explain_analyze as analyze_query
        return analyze_query(self.view(), query,
                             engine=self.query_engine)

    def define(self, name: str, definition) -> None:
        """Define a new retrieval operator (§6)."""
        self.operators.define(name, definition)

    def invoke(self, name: str, *arguments):
        """Invoke a user-defined operator."""
        return self.operators.invoke(name, self, *arguments)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Size/derivation statistics (used by benches and examples).

        ``rule_firings`` totals come from the last closure computation
        (incremental extensions accumulate into them); ``rule_times``
        is non-empty only when telemetry was enabled during the
        computation.
        """
        closure = self.closure()
        closure_facts = len(closure.store)
        if self._composition_enabled:
            closure_facts += len(self.view().closure.composed())
        return {
            "base_facts": len(self._base),
            "closure_facts": closure_facts,
            "derived_facts": closure_facts - len(self._base),
            "entities": len(self._base.entities()),
            "relationships": len(self._base.relationships()),
            "enabled_rules": self.rules.enabled_names(),
            "composition_limit": self._composition_limit,
            "query_engine": self.query_engine,
            "iterations": closure.iterations,
            "rule_firings": dict(closure.rule_firings),
            "rule_times": dict(closure.rule_times),
            # There is no result cache and no plan cache.
            # ``benchmarks/macro/ladder.py`` (which a PR may not edit)
            # still indexes these keys; literal zeros until ROADMAP
            # item 1 re-bases the contract.
            "result_cache": {"hits": 0, "misses": 0, "evictions": 0},
            "plan_cache": {"hits": 0, "misses": 0, "recompiles": 0},
            "hierarchy": self._hierarchy_stats(),
            "store": self.store_shape(),
        }

    def _hierarchy_stats(self) -> dict:
        """Lattice lifecycle counters: how often this database rebuilt
        the generalization lattice from scratch vs patched it in place
        (the over-invalidation regression guard)."""
        stats = {
            "rebuilds": self._hierarchy_rebuilds,
            "patches": self._hierarchy_patches,
            "cached": self._hierarchy is not None,
        }
        if self._hierarchy is not None:
            stats.update(self._hierarchy.stats())
        return stats

    def __repr__(self) -> str:
        return (f"Database({len(self._base)} facts,"
                f" {len(self.rules)} rules enabled,"
                f" limit={self._composition_limit})")
