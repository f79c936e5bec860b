"""Interned columnar fact storage: flat int arrays + CSR indexes.

The hash-indexed :class:`~repro.core.store.FactStore` answers every
access pattern in O(1), but it pays for that with an object graph —
one :class:`~repro.core.facts.Fact` tuple per fact plus six
dict-of-set indexes holding references to them — that is expensive to
*copy* and impossible to *share* across processes.  At a million facts
the replica pool spent most of its bootstrap shipping and rebuilding
exactly that graph.

This module stores the same information relationally:

* an :class:`Interner` — a bidirectional str↔int dictionary over every
  entity that occurs in any position;
* a :class:`ColumnarGeneration` — the facts as three parallel
  ``array('i')`` columns of interned ids, sorted by ``(s, r, t)``, with
  the seven access patterns served by CSR-style indexes: offset-range
  arrays for the single-position patterns and sorted packed-key arrays
  (probed by binary search) for the two-position patterns;
* an :class:`InternedFactStore` — a drop-in :class:`FactStore`
  replacement layering a small mutable *overlay* (adds) and an indexed
  tombstone store (removes) over one frozen generation, with
  :meth:`~InternedFactStore.compact` folding everything into a fresh
  generation once the two outgrow :data:`OVERLAY_BUDGET`.

Because a generation is nothing but flat arrays and one string blob,
it can be placed in :mod:`multiprocessing.shared_memory` and *attached*
by other processes: :meth:`ColumnarGeneration.share` publishes a
generation under a :class:`GenerationHandle` (segment name + layout),
and :meth:`ColumnarGeneration.attach` maps it with zero copying of the
fact data.  The replica pool bootstraps workers by shipping a handle
instead of a pickled snapshot (see :mod:`repro.serve.replica`).

Example::

    from repro.core import Fact
    from repro.core.interned import InternedFactStore

    store = InternedFactStore.from_facts(
        [Fact("JOHN", "EARNS", "$25000")])
    assert [f.target for f in store.lookup("JOHN")] == ["$25000"]
    assert store.count_estimate_exact
"""

from __future__ import annotations

import itertools
import os
import secrets
from array import array
from bisect import bisect_left
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..obs import telemetry as _obs
from .errors import FrozenStoreError, ReplicaError
from .facts import Fact, Template, Variable
from .store import FactStore, NameCodec

__all__ = [
    "OVERLAY_BUDGET", "IdCodec", "Interner", "ColumnarGeneration",
    "GenerationHandle", "InternedFactStore", "attach_shared_memory",
    "unlink_generation",
]

#: The one overlay budget: how many facts — additions *plus* tombstones
#: (:attr:`InternedFactStore.overlay_size`) — a store may hold outside
#: its generation before the serving writer folds it into a fresh
#: generation (:class:`repro.serve.DatabaseService`).  It sets only how
#: often the writer folds: readers pay for the overlay (every probe
#: merges it, whatever its size), every fold is O(heap), so a smaller
#: budget buys read latency with more frequent folds.
OVERLAY_BUDGET = 128

#: Where POSIX shared memory lives on Linux; :meth:`ColumnarGeneration.share`
#: checks its free space before copying a generation in (platforms
#: without the directory skip the check).
SEGMENT_DIRECTORY = "/dev/shm"


class IdCodec:
    """A per-execution id⇄name codec over one generation's interner.

    Base ids (``< base``) come straight from the frozen name table;
    names outside it — overlay facts, virtual facts, query constants
    the generation never saw — get *scratch* ids ``>= base``, assigned
    densely per codec instance.  Encoding is injective in both
    directions, so id equality is name equality: the executor's join
    keys, dedup sets, and repeated-variable checks can all operate on
    machine ints and the answers stay bit-identical to a hash store's,
    whose ids are the names (:class:`~repro.core.store.NameCodec`).
    """

    __slots__ = ("interner", "base", "_scratch", "_scratch_ids")

    def __init__(self, interner):
        self.interner = interner
        self.base = len(interner)
        self._scratch: List[str] = []
        self._scratch_ids: Dict[str, int] = {}

    def encode(self, name: str) -> int:
        i = self.interner.id_of(name)
        if i is not None:
            return i
        i = self._scratch_ids.get(name)
        if i is None:
            i = self.base + len(self._scratch)
            self._scratch_ids[name] = i
            self._scratch.append(name)
        return i

    def decode(self, i: int) -> str:
        if i < self.base:
            return self.interner.names[i]
        return self._scratch[i - self.base]


class Interner:
    """An append-only bidirectional str↔int dictionary.

    Ids are dense and assigned in first-intern order; a generation's
    columns refer to entities exclusively by these ids.  The table is
    immutable once a generation is built from it (nothing ever needs a
    *new* id afterwards: overlay facts keep their strings).
    """

    __slots__ = ("names", "_ids")

    def __init__(self, names: Sequence[str] = ()):
        self.names: List[str] = list(names)
        self._ids: Dict[str, int] = {
            name: i for i, name in enumerate(self.names)}

    def intern(self, name: str) -> int:
        """The id for ``name``, assigning a fresh one if unseen."""
        i = self._ids.get(name)
        if i is None:
            i = len(self.names)
            self.names.append(name)
            self._ids[name] = i
        return i

    def id_of(self, name: str) -> Optional[int]:
        """The id for ``name``, or ``None`` if it was never interned."""
        return self._ids.get(name)

    def name_of(self, i: int) -> str:
        return self.names[i]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


class _LazyNames:
    """A read-only id→str sequence over the shared name table.

    Decodes one name per access and memoizes it, so attaching to a
    generation never pays for strings the replica does not touch."""

    __slots__ = ("_blob", "_offsets", "_memo")

    def __init__(self, blob, offsets, n: int):
        self._blob = blob
        self._offsets = offsets
        self._memo: List[Optional[str]] = [None] * n

    def __len__(self) -> int:
        return len(self._memo)

    def __getitem__(self, i: int) -> str:
        name = self._memo[i]
        if name is None:
            offsets = self._offsets
            name = str(bytes(self._blob[offsets[i]:offsets[i + 1]]),
                       "utf-8")
            self._memo[i] = name
        return name

    def __iter__(self) -> Iterator[str]:
        for i in range(len(self._memo)):
            yield self[i]


_ID_MISS = object()


class SharedInterner:
    """A read-only str↔int dictionary over the shared name table.

    Drop-in for :class:`Interner` on the attach side, minus
    :meth:`intern` (a generation's table is frozen; overlay facts keep
    their strings).  ``names`` decodes lazily; ``id_of`` binary-searches
    the ``name_sort`` permutation the sharer wrote — O(log n) over the
    shared bytes, memoized per process — so neither direction ever
    materializes the full table."""

    __slots__ = ("names", "_blob", "_offsets", "_order", "_n", "_ids")

    def __init__(self, blob, offsets, order, n: int):
        self.names = _LazyNames(blob, offsets, n)
        self._blob = blob
        self._offsets = offsets
        self._order = order
        self._n = n
        self._ids: Dict[str, object] = {}

    def intern(self, name: str) -> int:
        raise RuntimeError("shared name table is frozen")

    def id_of(self, name: str) -> Optional[int]:
        i = self._ids.get(name, _ID_MISS)
        if i is not _ID_MISS:
            return i  # type: ignore[return-value]
        target = name.encode("utf-8")
        blob, offsets, order = self._blob, self._offsets, self._order
        lo, hi = 0, self._n
        while lo < hi:
            mid = (lo + hi) // 2
            j = order[mid]
            if bytes(blob[offsets[j]:offsets[j + 1]]) < target:
                lo = mid + 1
            else:
                hi = mid
        found: Optional[int] = None
        if lo < self._n:
            j = order[lo]
            if bytes(blob[offsets[j]:offsets[j + 1]]) == target:
                found = j
        self._ids[name] = found
        return found

    def name_of(self, i: int) -> str:
        return self.names[i]

    def __len__(self) -> int:
        return self._n

    def __contains__(self, name: str) -> bool:
        return self.id_of(name) is not None


class GenerationHandle:
    """Everything needed to attach a shared generation from another
    process: the segment name plus the layout of the arrays inside it.

    Plain picklable data — this is what the replica pool ships over a
    pipe (or through ``spawn`` process arguments) instead of the fact
    heap itself.
    """

    __slots__ = ("name", "n", "n_names", "version", "layout", "size")

    def __init__(self, name: str, n: int, n_names: int, version: int,
                 layout: Tuple[Tuple[str, str, int], ...], size: int):
        self.name = name
        self.n = n
        self.n_names = n_names
        self.version = version
        self.layout = layout        # ((field, typecode, count), ...)
        self.size = size

    def __getstate__(self):
        return (self.name, self.n, self.n_names, self.version,
                self.layout, self.size)

    def __setstate__(self, state):
        (self.name, self.n, self.n_names, self.version,
         self.layout, self.size) = state

    def __repr__(self) -> str:
        return (f"GenerationHandle({self.name!r}, n={self.n},"
                f" names={self.n_names}, {self.size} bytes)")


def attach_shared_memory(name: str):
    """Attach an existing shared-memory segment *without* registering
    it with the resource tracker.

    The creator of a segment owns its lifetime; an attaching process
    must not let Python's ``resource_tracker`` adopt the name, or every
    worker exit produces "leaked shared_memory" warnings and a
    double-unlink race.  Python 3.13 has ``track=False`` for exactly
    this; earlier versions need the documented unregister workaround.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        segment = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker
            resource_tracker.unregister(segment._name,  # noqa: SLF001
                                        "shared_memory")
        except Exception:  # pragma: no cover - defensive
            pass
        return segment


def unlink_generation(name: str) -> bool:
    """Unlink a shared generation segment by name (idempotent).

    Returns True if the segment existed.  Already-attached processes
    keep their mappings (POSIX semantics); the memory is reclaimed when
    the last of them detaches.
    """
    from multiprocessing import shared_memory

    # Deliberately tracked: attaching registers the name with this
    # process's resource tracker and unlink() unregisters it, so the
    # pair stays balanced whether or not this process created the
    # segment (registration is a set — the creator's own entry merges).
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.unlink()
    segment.close()
    return True


class ColumnarGeneration:
    """One frozen, fully indexed columnar snapshot of a fact set.

    Facts live in three parallel id columns sorted by ``(s, r, t)`` —
    so the natural order doubles as the ``s`` and ``(s, r)`` clustered
    index — plus two permutation arrays for the ``r``/``(r, t)`` and
    ``t``/``(s, t)`` orders:

    ====================  ====================================
    bound positions       probe
    ====================  ====================================
    s                     ``start_s[id] .. start_s[id+1]``
    s, r                  binary search in ``sr_keys``
    s, r, t               ``sr`` range + binary search on t
    r                     ``start_r`` range over ``perm_r``
    r, t                  binary search in ``rt_keys``
    t                     ``start_t`` range over ``perm_t``
    s, t                  binary search in ``st_keys``
    ====================  ====================================

    Every structure is a flat ``array``/``memoryview``, so a generation
    is either *built* (process-local arrays) or *attached* (zero-copy
    views over a :mod:`multiprocessing.shared_memory` segment); all
    probing code is agnostic to which.
    """

    __slots__ = (
        "interner", "n", "version",
        "scol", "rcol", "tcol",
        "start_s", "start_r", "start_t",
        "perm_r", "perm_t",
        "sr_keys", "sr_starts", "rt_keys", "rt_starts",
        "st_keys", "st_starts",
        "_fact_memo", "_segment", "_views",
        "__weakref__",      # a retired generation's release is testable
    )

    def __init__(self):
        # Lazily allocated flat memo (one slot per column offset): a
        # list index beats dict hashing on the hottest decode path.
        self._fact_memo: Optional[List[Optional[Fact]]] = None
        self._segment = None
        self._views: List = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, facts: Iterable[Fact],
              version: int = 0) -> "ColumnarGeneration":
        """Build a generation (and its interner) from an iterable of
        facts.  O(n log n): one sort per physical order."""
        gen = cls()
        interner = Interner()
        intern = interner.intern
        triples = [(intern(f[0]), intern(f[1]), intern(f[2]))
                   for f in facts]
        triples.sort()
        # The heap is a set: callers may feed raw fact lists with
        # repeats (the hash store dedupes on insert), so drop adjacent
        # duplicates from the sorted order.
        triples = [key for key, _ in itertools.groupby(triples)]
        n = len(triples)
        u = len(interner)
        gen.interner = interner
        gen.n = n
        gen.version = version

        scol = array("i", bytes(4 * n))
        rcol = array("i", bytes(4 * n))
        tcol = array("i", bytes(4 * n))
        for i, (s, r, t) in enumerate(triples):
            scol[i] = s
            rcol[i] = r
            tcol[i] = t
        del triples
        gen.scol, gen.rcol, gen.tcol = scol, rcol, tcol

        gen.start_s = cls._offsets(scol, u)
        # Secondary physical orders.  Packing (a, b, c) into one int
        # makes the sort key cheap; ids are dense so u bounds each
        # component and the packed key stays well inside 64 bits for
        # any realistic interner (overflow simply promotes to a long —
        # still correct, just slower).
        perm_r = sorted(range(n),
                        key=lambda i: (rcol[i] * u + tcol[i]) * u + scol[i])
        perm_t = sorted(range(n),
                        key=lambda i: (tcol[i] * u + scol[i]) * u + rcol[i])
        gen.perm_r = array("i", perm_r)
        gen.perm_t = array("i", perm_t)
        gen.start_r = cls._offsets_perm(rcol, perm_r, u)
        gen.start_t = cls._offsets_perm(tcol, perm_t, u)

        gen.sr_keys, gen.sr_starts = cls._pair_runs(
            ((scol[i], rcol[i]) for i in range(n)), u, n)
        gen.rt_keys, gen.rt_starts = cls._pair_runs(
            ((rcol[i], tcol[i]) for i in perm_r), u, n)
        gen.st_keys, gen.st_starts = cls._pair_runs(
            ((tcol[i], scol[i]) for i in perm_t), u, n)
        return gen

    @staticmethod
    def _offsets(col: Sequence[int], u: int) -> array:
        """CSR offsets over a sorted column: id → [start, end)."""
        counts = [0] * (u + 1)
        for value in col:
            counts[value + 1] += 1
        return array("q", itertools.accumulate(counts))

    @staticmethod
    def _offsets_perm(col: Sequence[int], perm: Sequence[int],
                      u: int) -> array:
        counts = [0] * (u + 1)
        for i in perm:
            counts[col[i] + 1] += 1
        return array("q", itertools.accumulate(counts))

    @staticmethod
    def _pair_runs(pairs: Iterator[Tuple[int, int]], u: int,
                   n: int) -> Tuple[array, array]:
        """Distinct (a, b) run keys and their start offsets, for a
        stream of pairs already sorted by (a, b)."""
        keys = array("q")
        starts = array("q")
        last = None
        for i, (a, b) in enumerate(pairs):
            packed = a * u + b
            if packed != last:
                keys.append(packed)
                starts.append(i)
                last = packed
        starts.append(n)
        return keys, starts

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------
    _FIELDS = ("scol", "rcol", "tcol", "perm_r", "perm_t",
               "start_s", "start_r", "start_t",
               "sr_keys", "sr_starts", "rt_keys", "rt_starts",
               "st_keys", "st_starts")

    def share(self, name: Optional[str] = None) -> GenerationHandle:
        """Copy this generation into one shared-memory segment.

        Returns the :class:`GenerationHandle` other processes attach
        with.  The caller owns the segment, by name: nothing of it
        stays mapped here, and it lives until
        :func:`unlink_generation` (the pool's re-share at the next
        fold, or its shutdown) removes it.  Raises
        :class:`~repro.core.errors.ReplicaError` before creating
        anything when the segment directory has less room than the
        generation needs — on tmpfs the allocation would succeed and
        the copy would kill this process with ``SIGBUS``.
        """
        from multiprocessing import shared_memory

        encoded = [s.encode("utf-8") for s in self.interner.names]
        blob = b"".join(encoded)
        offsets = array("q", itertools.accumulate(
            itertools.chain((0,), map(len, encoded))))
        # Ids in byte-lexicographic name order: the attach side
        # resolves str→id by bisecting this permutation against the
        # blob instead of materializing a dict over the whole table.
        order = array("i", sorted(range(len(encoded)),
                                  key=encoded.__getitem__))
        parts: List[Tuple[str, str, bytes]] = [
            ("name_offsets", "q", offsets.tobytes()),
            ("names_blob", "B", blob),
            ("name_sort", "i", order.tobytes()),
        ]
        for field in self._FIELDS:
            arr: array = getattr(self, field)
            parts.append((field, arr.typecode, arr.tobytes()))

        layout: List[Tuple[str, str, int]] = []
        total = 0
        placed: List[Tuple[int, bytes]] = []
        for field, typecode, raw in parts:
            total = (total + 7) & ~7        # 8-byte alignment
            itemsize = array(typecode).itemsize
            layout.append((field, typecode, len(raw) // itemsize))
            placed.append((total, raw))
            total += len(raw)
        total = max(total, 1)

        if os.path.isdir(SEGMENT_DIRECTORY):
            room = os.statvfs(SEGMENT_DIRECTORY)
            available = room.f_bavail * room.f_frsize
            if total > available:
                raise ReplicaError(
                    f"sharing a generation of {self.n} facts needs"
                    f" {total} bytes of shared memory and"
                    f" {SEGMENT_DIRECTORY} has {available} free: serve"
                    f" without replica workers (--workers 0) or mount"
                    f" a larger {SEGMENT_DIRECTORY}")
        if name is None:
            name = f"repro-gen-{os.getpid()}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=total)
        try:
            buf = segment.buf
            for (offset, raw) in placed:
                buf[offset:offset + len(raw)] = raw
        finally:
            segment.close()
        return GenerationHandle(
            name=segment.name, n=self.n, n_names=len(self.interner),
            version=self.version, layout=tuple(layout), size=total)

    @classmethod
    def attach(cls, handle: GenerationHandle) -> "ColumnarGeneration":
        """Map a shared generation with zero copying of fact data.

        The columns, permutations, and CSR indexes are read directly
        from the segment as typed memoryviews, and the name table
        resolves both directions lazily (:class:`SharedInterner`), so
        attach cost is independent of heap size.
        """
        gen = cls()
        segment = attach_shared_memory(handle.name)
        gen._segment = segment
        gen.n = handle.n
        gen.version = handle.version
        buf = segment.buf
        offset = 0
        views: Dict[str, memoryview] = {}
        for field, typecode, count in handle.layout:
            offset = (offset + 7) & ~7
            itemsize = array(typecode).itemsize
            nbytes = count * itemsize
            view = memoryview(buf)[offset:offset + nbytes]
            if typecode != "B":
                view = view.cast(typecode)
            views[field] = view
            gen._views.append(view)
            offset += nbytes
        gen.interner = SharedInterner(
            views["names_blob"], views["name_offsets"],
            views["name_sort"], handle.n_names)
        for field in cls._FIELDS:
            setattr(gen, field, views[field])
        return gen

    def close(self) -> None:
        """Release an attached generation's segment mapping (not
        unlink); a built generation has none and is left as it is."""
        if self._segment is None:
            return
        for view in self._views:
            view.release()
        self._views = []
        # The fields were those views: the memo goes with them.
        self._fact_memo = None
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
        self._segment = None

    def __del__(self):
        # A replica that recomputes its closure (a shipped control)
        # drops the attached store without closing it; left to the
        # collector, the segment would go before the views into it
        # and say so on stderr.
        self.close()

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def fact_at(self, position: int) -> Fact:
        """The decoded fact at one column offset (memoized, so a fact
        is materialized at most once per process)."""
        memo = self._fact_memo
        if memo is None:
            memo = self._fact_memo = [None] * self.n
        fact = memo[position]
        if fact is None:
            names = self.interner.names
            fact = Fact(names[self.scol[position]],
                        names[self.rcol[position]],
                        names[self.tcol[position]])
            memo[position] = fact
        return fact

    def positions(self, spec: str,
                  ids: Tuple[int, ...]) -> Iterable[int]:
        """Column offsets of the facts matching one ground pattern.

        ``spec`` names the bound positions (``"s"``, ``"sr"``, …) and
        ``ids`` their interned values, in spec order.  Integer probes
        only — no strings, no tuple hashing.
        """
        n = self.n
        if spec == "":
            return range(n)
        if spec == "s":
            return range(self.start_s[ids[0]], self.start_s[ids[0] + 1])
        if spec == "sr":
            return self._pair_range(self.sr_keys, self.sr_starts,
                                    ids[0], ids[1])
        if spec == "r":
            lo, hi = self.start_r[ids[0]], self.start_r[ids[0] + 1]
            perm = self.perm_r
            return (perm[i] for i in range(lo, hi))
        if spec == "rt":
            run = self._pair_range(self.rt_keys, self.rt_starts,
                                   ids[0], ids[1])
            perm = self.perm_r
            return (perm[i] for i in run)
        if spec == "t":
            lo, hi = self.start_t[ids[0]], self.start_t[ids[0] + 1]
            perm = self.perm_t
            return (perm[i] for i in range(lo, hi))
        if spec == "st":
            # st runs live in the (t, s) physical order.
            run = self._pair_range(self.st_keys, self.st_starts,
                                   ids[1], ids[0])
            perm = self.perm_t
            return (perm[i] for i in run)
        if spec == "srt":
            position = self._find(ids[0], ids[1], ids[2])
            return () if position < 0 else (position,)
        raise KeyError(f"no index for position spec {spec!r}")

    def positions_many(self, spec: str,
                       keys: Sequence[Tuple[Optional[int], ...]]
                       ) -> List[Sequence[int]]:
        """:meth:`positions` of each of a batch of keys sharing one
        ``spec``: the index (CSR offsets, or a packed-pair array and
        its component order), the permutation and the id bound are
        resolved once for the batch, so a key costs its binary search
        and a slice.  A run of the natural order is a ``range``, one
        of a permuted order that slice of the permutation.  A key
        holding ``None`` or an id outside the base range (a scratch id
        would alias another pair once packed) gets an empty run.
        """
        if spec == "":
            return [range(self.n)] * len(keys)
        index, starts, perm = self._BATCH_INDEX[spec]
        starts = getattr(self, starts)
        perm = perm and getattr(self, perm)
        base = len(self.start_s) - 1
        runs: List[Sequence[int]] = []
        append = runs.append
        if index is None:
            for (i,) in keys:
                if i is None or i >= base:
                    append(())
                elif perm is None:
                    append(range(starts[i], starts[i + 1]))
                else:
                    append(perm[starts[i]:starts[i + 1]])
            return runs
        index = getattr(self, index)
        last = len(index) - 1
        # st runs live in the (t, s) physical order; an srt key
        # bisects its (s, r) run for t.
        swap = spec == "st"
        exact = spec == "srt"
        tcol = self.tcol
        for key in keys:
            a, b = key[0], key[1]
            if None in key or a >= base or b >= base:
                append(())
                continue
            packed = b * base + a if swap else a * base + b
            k = bisect_left(index, packed)
            if k > last or index[k] != packed:
                append(())
                continue
            lo, hi = starts[k], starts[k + 1]
            if exact:
                at = bisect_left(tcol, key[2], lo, hi)
                append((at,) if at < hi and tcol[at] == key[2] else ())
            elif perm is None:
                append(range(lo, hi))
            else:
                append(perm[lo:hi])
        return runs

    #: spec -> (packed-pair keys or ``None`` for plain CSR offsets,
    #: run starts, permutation or ``None`` for the natural order)
    _BATCH_INDEX = {
        "s": (None, "start_s", None),
        "r": (None, "start_r", "perm_r"),
        "t": (None, "start_t", "perm_t"),
        "sr": ("sr_keys", "sr_starts", None),
        "rt": ("rt_keys", "rt_starts", "perm_r"),
        "st": ("st_keys", "st_starts", "perm_t"),
        "srt": ("sr_keys", "sr_starts", None),
    }

    def count(self, s: Optional[int], r: Optional[int],
              t: Optional[int]) -> int:
        """Exact match count for one ground pattern (``None`` = open
        position): pure index-length lookups, never a scan."""
        if s is None:
            if r is None:
                if t is None:
                    return self.n
                return self.start_t[t + 1] - self.start_t[t]
            if t is None:
                return self.start_r[r + 1] - self.start_r[r]
            return len(self._pair_range(self.rt_keys, self.rt_starts,
                                        r, t))
        if r is None:
            if t is None:
                return self.start_s[s + 1] - self.start_s[s]
            return len(self._pair_range(self.st_keys, self.st_starts,
                                        t, s))
        if t is None:
            return len(self._pair_range(self.sr_keys, self.sr_starts,
                                        s, r))
        return 1 if self._find(s, r, t) >= 0 else 0

    def _pair_range(self, keys, starts, a: int, b: int) -> range:
        packed = a * len(self.interner) + b
        k = bisect_left(keys, packed)
        if k >= len(keys) or keys[k] != packed:
            return range(0)
        return range(starts[k], starts[k + 1])

    def _find(self, s: int, r: int, t: int) -> int:
        """Offset of the exact triple, or -1: binary search on t inside
        the (s, r) run (the natural order is sorted by (s, r, t))."""
        run = self._pair_range(self.sr_keys, self.sr_starts, s, r)
        lo, hi = run.start, run.stop
        tcol = self.tcol
        while lo < hi:
            mid = (lo + hi) // 2
            value = tcol[mid]
            if value < t:
                lo = mid + 1
            elif value > t:
                hi = mid
            else:
                return mid
        return -1

    def position_of(self, fact: Fact) -> int:
        """Column offset of ``fact``, or -1 when it is not here."""
        id_of = self.interner.id_of
        s = id_of(fact[0])
        if s is None:
            return -1
        r = id_of(fact[1])
        if r is None:
            return -1
        t = id_of(fact[2])
        if t is None:
            return -1
        return self._find(s, r, t)

    def contains_fact(self, fact: Fact) -> bool:
        return self.position_of(fact) >= 0

    def entity_occurrences(self, i: int) -> int:
        """How many position slots entity ``i`` fills across all facts
        (three O(1) offset subtractions)."""
        return ((self.start_s[i + 1] - self.start_s[i])
                + (self.start_r[i + 1] - self.start_r[i])
                + (self.start_t[i + 1] - self.start_t[i]))

    def relationship_occurrences(self, i: int) -> int:
        return self.start_r[i + 1] - self.start_r[i]

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Fact]:
        for position in range(self.n):
            yield self.fact_at(position)

    def nbytes(self) -> int:
        """Total flat-array payload (what a shared segment holds)."""
        total = sum(len(getattr(self, f)) * (8 if getattr(
            self, f).typecode == "q" else 4) for f in self._FIELDS) \
            if not self._views else 0
        if self._views:
            return sum(v.nbytes for v in self._views)
        total += sum(len(s.encode("utf-8")) for s in self.interner.names)
        total += 8 * (len(self.interner) + 1)
        return total


class _OverlayStore(FactStore):
    """The hash store of one small layer (overlay or tombstones),
    copied on every publish: :meth:`copy` duplicates the index dicts
    but *shares* their per-key fact sets, and a store copies a shared
    set the first time it mutates that key.  A copy is then a handful
    of C-level dict copies however many facts the layer holds, and a
    mutation costs what it costs on a :class:`FactStore` except for the
    first touch of a key after a copy.
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        #: ``id`` of every per-key set this store created itself (and
        #: may therefore mutate in place).  Sets enter the indexes only
        #: through :meth:`_own` or :meth:`copy` — which disowns all of
        #: them on both sides — and never leave, so an owned id always
        #: names a live set of this store.
        self._owned: Set[int] = set()
        super().__init__(facts)

    def _own(self, fact: Fact) -> None:
        """Make every per-key set ``fact`` belongs in one this store
        may mutate: a fresh set for a new key, a private copy of a set
        a :meth:`copy` still shares."""
        s, r, t = fact
        owned = self._owned
        for index, key in ((self._by_s, s), (self._by_r, r),
                           (self._by_t, t), (self._by_sr, (s, r)),
                           (self._by_st, (s, t)), (self._by_rt, (r, t))):
            bucket = index.get(key)
            if bucket is None or id(bucket) not in owned:
                bucket = index[key] = set(bucket or ())
                owned.add(id(bucket))

    def _index(self, fact: Fact) -> None:
        self._own(fact)
        super()._index(fact)

    def _unindex(self, fact: Fact) -> None:
        self._own(fact)
        super()._unindex(fact)

    def copy(self) -> "_OverlayStore":
        new = _OverlayStore.__new__(_OverlayStore)
        new._facts = set(self._facts)
        new._by_s = self._by_s.copy()
        new._by_r = self._by_r.copy()
        new._by_t = self._by_t.copy()
        new._by_sr = self._by_sr.copy()
        new._by_st = self._by_st.copy()
        new._by_rt = self._by_rt.copy()
        new._entity_refs = self._entity_refs.copy()
        new._relationship_refs = self._relationship_refs.copy()
        new._version = self._version
        new._frozen = False
        new._owned = set()
        self._owned = set()
        return new


class InternedFactStore(FactStore):
    """A :class:`FactStore` re-founded on one interned columnar
    generation plus a small mutable overlay.

    Reads merge three layers: the frozen generation (integer CSR
    probes), minus the tombstones (facts discarded since the
    generation was built), plus the overlay (facts added since).
    Overlay and tombstones are each a hash store
    (:class:`_OverlayStore`) maintained by :meth:`add` /
    :meth:`discard`, so mutation cost matches the classic store and
    counting either layer is an index length; the win is that the bulk
    of the heap is flat arrays — cheap to copy (the generation is
    shared, the two small layers share their fact sets copy-on-write),
    cheap to place in shared memory, and probed without tuple hashing.

    Nothing here folds by itself: :attr:`overlay_size` is the pressure
    gauge and :data:`OVERLAY_BUDGET` the bound.  The serving writer
    (:class:`repro.serve.DatabaseService`) folds its master's stores
    with :meth:`repro.db.Database.compact_store` whenever one exceeds
    the budget; a library caller who mutates a compacted
    :class:`~repro.db.Database` by hand folds by calling it again.

    Invariants: the overlay and the (non-tombstoned) generation are
    disjoint, so merged iteration never deduplicates; every tombstone
    is a generation fact, and ``_removed_at`` holds exactly the
    tombstones' column offsets.
    """

    #: Class marker the dispatched closure keys its first delta on (a
    #: copy shares the generation).
    interned = True
    #: :meth:`count_estimate` is exact for patterns without repeated
    #: variables (index length lookups, tombstone- and
    #: overlay-adjusted) — the planner drops its sampling fudge.
    count_estimate_exact = True

    def __init__(self, facts: Iterable[Fact] = ()):
        self._gen: Optional[ColumnarGeneration] = None
        self._overlay = _OverlayStore()
        self._removed = _OverlayStore()
        self._removed_at: Set[int] = set()
        self._version = 0
        self._frozen = False
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_facts(cls, facts: Iterable[Fact],
                   version: int = 0) -> "InternedFactStore":
        """A store whose entire content is one fresh generation."""
        store = cls()
        store._gen = ColumnarGeneration.build(facts, version=version)
        store._version = version
        return store

    @classmethod
    def from_generation(cls, generation: ColumnarGeneration
                        ) -> "InternedFactStore":
        """Wrap an existing (e.g. attached) generation; the overlay
        starts empty and the store version continues from the
        generation's recorded source version."""
        store = cls()
        store._gen = generation
        store._version = generation.version
        return store

    @classmethod
    def attach(cls, handle: GenerationHandle) -> "InternedFactStore":
        """Attach to a shared generation published by another process."""
        return cls.from_generation(ColumnarGeneration.attach(handle))

    def compact(self) -> "InternedFactStore":
        """Fold generation, tombstones, and overlay into a fresh
        single-generation store (same facts, same version)."""
        return InternedFactStore.from_facts(self, version=self._version)

    @property
    def generation(self) -> Optional[ColumnarGeneration]:
        return self._gen

    @property
    def overlay_size(self) -> int:
        """Facts outside the generation, additions plus tombstones:
        what :data:`OVERLAY_BUDGET` bounds."""
        return len(self._overlay) + len(self._removed)

    @property
    def tombstones(self) -> int:
        """Generation facts discarded since the generation was built."""
        return len(self._removed)

    def close(self) -> None:
        """Release an attached generation's shared mapping."""
        if self._gen is not None:
            self._gen.close()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        if self._frozen:
            raise FrozenStoreError("cannot add to a frozen store")
        if fact in self._removed:
            self._removed._unindex(fact)  # noqa: SLF001
            self._removed_at.discard(self._gen.position_of(fact))
            if _obs.ENABLED:
                _obs.TELEMETRY.count("store.adds")
            self._version += 1
            return True
        if self._gen is not None and self._gen.contains_fact(fact):
            return False
        if self._overlay.add(fact):
            self._version += 1
            return True
        return False

    def discard(self, fact: Fact) -> bool:
        if self._frozen:
            raise FrozenStoreError("cannot discard from a frozen store")
        if self._overlay.discard(fact):
            self._version += 1
            return True
        if self._gen is None or fact in self._removed:
            return False
        position = self._gen.position_of(fact)
        if position < 0:
            return False
        self._removed._index(fact)  # noqa: SLF001
        self._removed_at.add(position)
        if _obs.ENABLED:
            _obs.TELEMETRY.count("store.removes")
        self._version += 1
        return True

    def clear(self) -> None:
        if self._frozen:
            raise FrozenStoreError("cannot clear a frozen store")
        version = self._version + 1
        self.__init__()
        self._version = version

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        if fact in self._overlay:
            return True
        if self._gen is None:
            return False
        if fact in self._removed:
            return False
        return self._gen.contains_fact(fact)

    def __len__(self) -> int:
        base = self._gen.n if self._gen is not None else 0
        return base - len(self._removed) + len(self._overlay)

    def __iter__(self) -> Iterator[Fact]:
        if self._gen is not None:
            removed_at = self._removed_at
            if removed_at:
                fact_at = self._gen.fact_at
                for position in range(self._gen.n):
                    if position not in removed_at:
                        yield fact_at(position)
            else:
                yield from self._gen
        yield from self._overlay

    def __bool__(self) -> bool:
        return len(self) > 0

    def copy(self) -> "InternedFactStore":
        """An independent mutable copy: the generation (immutable) is
        shared, only the overlay layers duplicate — this is what makes
        snapshot publication and closure seeding cheap at heap scale."""
        new = InternedFactStore.__new__(InternedFactStore)
        new._gen = self._gen
        new._overlay = self._overlay.copy()
        new._removed = self._removed.copy()
        new._removed_at = set(self._removed_at)
        new._version = self._version
        new._frozen = False
        return new

    def entities(self) -> Set[str]:
        result = self._overlay.entities()
        gen = self._gen
        if gen is not None:
            removed = self._removed._entity_refs  # noqa: SLF001
            for i, name in enumerate(gen.interner.names):
                if gen.entity_occurrences(i) > removed.get(name, 0):
                    result.add(name)
        return result

    def relationships(self) -> Set[str]:
        result = self._overlay.relationships()
        gen = self._gen
        if gen is not None:
            removed = self._removed._relationship_refs  # noqa: SLF001
            start_r = gen.start_r
            names = gen.interner.names
            for i in range(len(names)):
                count = start_r[i + 1] - start_r[i]
                if count and count > removed.get(names[i], 0):
                    result.add(names[i])
        return result

    def has_entity(self, entity: str) -> bool:
        if self._overlay.has_entity(entity):
            return True
        gen = self._gen
        if gen is None:
            return False
        i = gen.interner.id_of(entity)
        if i is None:
            return False
        return gen.entity_occurrences(i) \
            > self._removed._entity_refs.get(entity, 0)  # noqa: SLF001

    def has_relationship(self, relationship: str) -> bool:
        if self._overlay.has_relationship(relationship):
            return True
        gen = self._gen
        if gen is None:
            return False
        i = gen.interner.id_of(relationship)
        if i is None:
            return False
        return gen.relationship_occurrences(i) \
            > self._removed._relationship_refs.get(  # noqa: SLF001
                relationship, 0)

    # ------------------------------------------------------------------
    # Template matching (integer probes)
    # ------------------------------------------------------------------
    def _spec_ids(self, s: Optional[str], r: Optional[str],
                  t: Optional[str]):
        """Resolve ground components to (spec, interned ids) — or
        ``None`` when some constant was never interned, meaning the
        generation cannot contain a match."""
        id_of = self._gen.interner.id_of
        spec = ""
        ids: List[int] = []
        for letter, value in (("s", s), ("r", r), ("t", t)):
            if value is None:
                continue
            i = id_of(value)
            if i is None:
                return None
            spec += letter
            ids.append(i)
        return spec, tuple(ids)

    def _gen_facts(self, s: Optional[str], r: Optional[str],
                   t: Optional[str]) -> Iterator[Fact]:
        """Generation-side candidates for raw ground positions."""
        gen = self._gen
        resolved = self._spec_ids(s, r, t)
        if resolved is None:
            return
        spec, ids = resolved
        fact_at = gen.fact_at
        removed_at = self._removed_at
        if removed_at:
            for position in gen.positions(spec, ids):
                if position not in removed_at:
                    yield fact_at(position)
        else:
            for position in gen.positions(spec, ids):
                yield fact_at(position)

    def _candidates(self, pattern: Template) -> Iterable[Fact]:
        s = pattern.source if isinstance(pattern.source, str) else None
        r = (pattern.relationship
             if isinstance(pattern.relationship, str) else None)
        t = pattern.target if isinstance(pattern.target, str) else None
        if _obs.ENABLED:
            _obs.TELEMETRY.count("store.lookups")
        return self._merged(s, r, t)

    def lookup(self, source: Optional[str] = None,
               relationship: Optional[str] = None,
               target: Optional[str] = None) -> Iterable[Fact]:
        if _obs.ENABLED:
            _obs.TELEMETRY.count("store.lookups")
        return self._merged(source, relationship, target)

    def _merged(self, s: Optional[str], r: Optional[str],
                t: Optional[str]) -> Iterable[Fact]:
        overlay = self._overlay
        if self._gen is None:
            return overlay.lookup(s, r, t) if len(overlay) else ()
        if not len(overlay):
            return self._gen_facts(s, r, t)
        return itertools.chain(self._gen_facts(s, r, t),
                               overlay.lookup(s, r, t))

    # ------------------------------------------------------------------
    # Integer-domain batch surfaces (id-native query execution)
    # ------------------------------------------------------------------
    def id_codec(self):
        """A fresh per-execution codec over this store's generation;
        before the first generation every fact is in the overlay and,
        as on a hash store, the ids are the names."""
        if self._gen is None:
            return NameCodec()
        return IdCodec(self._gen.interner)

    def lookup_many_ids(self, spec: str,
                        keys: Sequence[Tuple[Optional[int], ...]],
                        positions: Optional[Sequence[int]] = None,
                        checks: Sequence[Tuple[int, int]] = ()
                        ) -> List[list]:
        """Generation-side batched integer probe: one result list per
        key, no :class:`Fact` objects, no strings.

        ``keys`` are id tuples in ``spec`` order.  A key component that
        is ``None`` (a constant the generation never interned) or
        outside the base id range (a scratch id) makes that key's list
        empty — the overlay and virtual layers are the caller's to
        merge.  With ``positions`` each match is the tuple of those
        column components (the executor's new-variable extensions;
        ``[]`` turns the probe into a pure existence filter); without
        it, full ``(s, r, t)`` id triples.  ``checks`` are column-index
        pairs that must hold equal ids (repeated unbound variables —
        id equality is name equality within one interner space).
        Tombstones are filtered by generation offset; without a
        generation every list is empty.
        """
        gen = self._gen
        if gen is None:
            return [[] for _ in keys]
        removed = self._removed_at
        cols = (gen.scol, gen.rcol, gen.tcol)
        out_cols = None if positions is None else [
            cols[p] for p in positions]
        runs = gen.positions_many(spec, keys)
        if removed:
            runs = [[p for p in run if p not in removed] for run in runs]
        if checks:
            runs = [[p for p in run
                     if all(cols[i][p] == cols[j][p] for i, j in checks)]
                    for run in runs]
        if out_cols is None:
            scol, rcol, tcol = cols
            return [[(scol[p], rcol[p], tcol[p]) for p in run]
                    for run in runs]
        if len(out_cols) == 1:
            col = out_cols[0]
            return [[(col[p],) for p in run] for run in runs]
        if out_cols:
            return [[tuple([col[p] for col in out_cols]) for p in run]
                    for run in runs]
        # Pure filter: only existence matters.
        return [[()] if len(run) else [] for run in runs]

    def entity_id_domain(self, encode) -> List[int]:
        """The active entity domain as codec ids: generation entities
        that survive the tombstone layer (base ids, no name decoding)
        plus overlay entities encoded through ``encode``, deduplicated
        against the generation's contribution.  Same *set* as
        :meth:`entities`, in id space (order may differ)."""
        gen = self._gen
        out: List[int] = []
        live: List[int] = []
        if gen is not None:
            id_of = gen.interner.id_of
            removed: Dict[int, int] = {
                id_of(name): count for name, count
                in self._removed._entity_refs.items()}  # noqa: SLF001
            occurrences = gen.entity_occurrences
            if removed:
                live = [i for i in range(len(gen.interner))
                        if occurrences(i) > removed.get(i, 0)]
            else:
                live = [i for i in range(len(gen.interner))
                        if occurrences(i)]
            out.extend(live)
        if len(self._overlay):
            included = set(live)
            for name in self._overlay.entities():
                i = encode(name)
                if i not in included:
                    out.append(i)
        return out

    def count_estimate(self, pattern: Template,
                       binding=None) -> int:
        """Exact match count for patterns without repeated variables.

        Index-length lookups on all three layers: the generation's
        CSR offsets, minus the tombstone store's hash index, plus the
        overlay's.  Patterns with repeated variables keep the classic
        upper-bound semantics.
        """
        if binding:
            pattern = pattern.substitute(binding)
        s, r, t = pattern
        s_open = isinstance(s, Variable)
        r_open = isinstance(r, Variable)
        t_open = isinstance(t, Variable)
        if (s_open and ((r_open and s == r) or (t_open and s == t))) \
                or (r_open and t_open and r == t):
            # Upper bound, as in the hash store.
            return sum(1 for _ in self._candidates(pattern))
        if s_open:
            s = None
        if r_open:
            r = None
        if t_open:
            t = None
        total = 0
        gen = self._gen
        if gen is not None:
            # A constant the generation never interned matches nothing
            # in it (and so no tombstone either).
            id_of = gen.interner.id_of
            si = None if s is None else id_of(s)
            ri = None if r is None else id_of(r)
            ti = None if t is None else id_of(t)
            if (si is None) == (s is None) and (ri is None) == (r is None) \
                    and (ti is None) == (t is None):
                total = gen.count(si, ri, ti)
                if self._removed_at:
                    total -= len(self._removed.lookup(s, r, t))
        if self._overlay._facts:  # noqa: SLF001 - C-level truth test
            total += len(self._overlay.lookup(s, r, t))
        return total
