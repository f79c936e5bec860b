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
  tombstone store (removes) over one frozen generation, which
  :meth:`repro.db.Database.compact_store` folds into a fresh
  generation once the two outgrow :data:`OVERLAY_BUDGET`.

A generation caches nothing: a fact is decoded from its three id
columns each time it is read.  Because a generation is nothing but
flat arrays and one string blob, it can be written to one
self-describing file and *attached* by other processes:
:meth:`ColumnarGeneration.share` writes a header (magic, counts, store
version, each array's length) and the arrays after it, and
:meth:`ColumnarGeneration.attach` maps the file read-only with
:mod:`mmap`, with zero copying of the fact data.  The file's name is
all a process needs; the replica pool bootstraps workers by shipping
one name instead of a pickled snapshot (see
:mod:`repro.serve.replica`): a database's base heap and closure read
one generation, the base its rows flagged :data:`STORED`
(:class:`FlaggedFactStore`).

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
import mmap
import os
import secrets
import struct
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import itemgetter, ne
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
from .store import FactStore

__all__ = [
    "OVERLAY_BUDGET", "IdCodec", "Interner", "ColumnarGeneration",
    "InternedFactStore", "FlaggedFactStore", "STORED", "fold",
    "refound", "unlink_generation",
]

#: The one overlay budget: how many facts — additions *plus* tombstones
#: (:attr:`InternedFactStore.overlay_size`) — a store may hold outside
#: its generation before the serving writer folds it into a fresh
#: generation (:class:`repro.serve.DatabaseService`).  It sets only how
#: often the writer folds: readers pay for the overlay (every probe
#: merges it, whatever its size), every fold is O(heap), so a smaller
#: budget buys read latency with more frequent folds.
OVERLAY_BUDGET = 128

_EMPTY = range(0)

#: The row flag, one byte per generation row.  A database folds its
#: base heap and its closure into one generation of the closure's rows
#: (Motro's fact set P is a subset of its closure): ``STORED`` marks
#: the rows of P, which :attr:`repro.db.Database.facts` reads
#: (:class:`FlaggedFactStore`); a derived row holds 0.
STORED = 1

class IdCodec:
    """A per-execution id⇄name codec over one generation's interner.

    Base ids (``< base``) come straight from the frozen name table;
    names outside it — overlay facts, virtual facts, query constants
    the generation never saw — get *scratch* ids ``>= base``, assigned
    densely per codec instance.  Encoding is injective in both
    directions, so id equality is name equality: the executor's join
    keys, dedup sets, and repeated-variable checks can all operate on
    machine ints and the answers stay bit-identical to the reference
    evaluator's, which joins on the names.
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


class SharedInterner:
    """A read-only str↔int dictionary over the shared name table.

    Drop-in for :class:`Interner` on the attach side, minus
    :meth:`intern` (a generation's table is frozen; overlay facts keep
    their strings).  ``names`` decodes lazily; ``id_of`` binary-searches
    the ``name_sort`` permutation the sharer wrote — O(log n) over the
    shared bytes, each name found memoized per process — so neither
    direction ever materializes the full table.  A miss is not kept:
    the names a replica is asked about that its generation never saw
    (unknown query constants) are unbounded."""

    __slots__ = ("names", "_blob", "_offsets", "_order", "_n", "_ids")

    def __init__(self, blob, offsets, order, n: int):
        self.names = _LazyNames(blob, offsets, n)
        self._blob = blob
        self._offsets = offsets
        self._order = order
        self._n = n
        self._ids: Dict[str, int] = {}

    def intern(self, name: str) -> int:
        """Refuses: a mapped table is read-only (kept as the error a
        stray write meets; nothing reaches it)."""
        raise RuntimeError("shared name table is frozen")

    def id_of(self, name: str) -> Optional[int]:
        i = self._ids.get(name)
        if i is not None:
            return i
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
        if lo < self._n:
            j = order[lo]
            if bytes(blob[offsets[j]:offsets[j + 1]]) == target:
                self._ids[name] = j
                return j
        return None

    def name_of(self, i: int) -> str:
        return self.names[i]

    def __len__(self) -> int:
        return self._n


def _generation_path(name: str) -> str:
    """Where the generation file ``name`` lives: the RAM-backed
    ``/dev/shm`` where the host has one, else the temporary directory."""
    if os.path.isdir("/dev/shm"):
        return os.path.join("/dev/shm", name)
    import tempfile

    return os.path.join(tempfile.gettempdir(), name)


def unlink_generation(name: str) -> bool:
    """Remove a generation file by name (idempotent).

    Returns True if the file existed.  Processes that mapped it keep
    their mappings; the memory is reclaimed when the last of them lets
    go.
    """
    try:
        os.unlink(_generation_path(name))
    except FileNotFoundError:
        return False
    return True


def _write_all(fd: int, chunks: List) -> None:
    """Write ``chunks`` in order, straight from their buffers, resuming
    after a short write."""
    pending = [memoryview(chunk).cast("B") for chunk in chunks]
    while pending:
        written = os.writev(fd, pending)
        while pending and written >= len(pending[0]):
            written -= len(pending.pop(0))
        if pending:
            pending[0] = pending[0][written:]


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
    s, r                  ``s`` range + binary search on r
    s, r, t               ``sr`` range + binary search on t
    r                     ``start_r`` range over ``perm_r``
    r, t                  binary search in ``rt_keys``
    t                     ``start_t`` range over ``perm_t``
    s, t                  binary search in ``st_keys``
    ====================  ====================================

    One flags byte per row says whether a database's base heap holds
    it (:data:`STORED`); the closure holds every row.  Every structure is a flat ``array``/``memoryview``, so a
    generation is either *built* (process-local arrays) or *attached*
    (zero-copy views over a mapped generation file); all probing code
    is agnostic to which.
    """

    __slots__ = (
        "interner", "n", "version",
        "scol", "rcol", "tcol",
        "start_s", "start_r", "start_t",
        "perm_r", "perm_t",
        "rt_keys", "rt_starts", "st_keys", "st_starts", "flags",
        "_map", "_views", "_masks",
        "__weakref__",      # a retired generation's release is testable
    )

    def __init__(self):
        self._map = None
        self._views: List = []
        self._masks: Optional[Tuple[bytes, bytes, bytes]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, facts: Iterable[Fact],
              version: int = 0) -> "ColumnarGeneration":
        """Build a generation (and its interner) from an iterable of
        facts, every row flagged :data:`STORED`."""
        return cls.build_flagged(zip(facts, itertools.repeat(STORED)),
                                 version)

    @classmethod
    def build_flagged(cls, rows: Iterable[Tuple[Fact, int]],
                      version: int = 0) -> "ColumnarGeneration":
        """Build a generation (and its interner) from ``(fact, flags)``
        rows; a fact may repeat, with the same flags.  O(n log n): one
        sort per physical order, each fed a key list built in one pass,
        and the columns, offsets and run starts each one C-level map."""
        gen = cls()
        # Ids in first-intern order: an unseen name gets ``len(ids)``,
        # read before the call that stores it.
        ids: Dict[str, int] = {}
        intern = ids.setdefault
        keys = [(intern(s, len(ids)), intern(r, len(ids)),
                 intern(t, len(ids)), flags)
                for (s, r, t), flags in rows]
        keys.sort()
        # The heap is a set: callers may feed raw fact lists with
        # repeats (the hash store dedupes on insert), so drop adjacent
        # duplicates from the sorted order.
        keys = [key for key, _ in itertools.groupby(keys)]
        n = len(keys)
        u = len(ids)
        gen.interner = Interner(ids)
        gen.n = n
        gen.version = version
        scol, rcol, tcol, gen.flags = (
            array(code, map(itemgetter(k), keys))
            for k, code in enumerate("iiiB"))
        gen.scol, gen.rcol, gen.tcol = scol, rcol, tcol
        # Secondary physical orders.  Packing (a, b, c) into one int
        # makes the sort key cheap; ids are dense so u bounds each
        # component and the packed key stays well inside 64 bits for
        # any realistic interner (overflow simply promotes to a long —
        # still correct, just slower).  A pair run's key is the packed
        # triple less its last component.
        by_r = [(r * u + t) * u + s for s, r, t, _ in keys]
        by_t = [(t * u + s) * u + r for s, r, t, _ in keys]
        del keys
        gen.perm_r = array("i", sorted(range(n), key=by_r.__getitem__))
        gen.perm_t = array("i", sorted(range(n), key=by_t.__getitem__))
        gen.rt_keys, gen.rt_starts = cls._pair_runs(
            [by_r[i] // u for i in gen.perm_r], n)
        gen.st_keys, gen.st_starts = cls._pair_runs(
            [by_t[i] // u for i in gen.perm_t], n)
        # A column's counts do not depend on its order, so its offsets
        # into a permutation sorted on it are the same.
        gen.start_s = cls._offsets(scol, u)
        gen.start_r = cls._offsets(rcol, u)
        gen.start_t = cls._offsets(tcol, u)
        return gen

    @staticmethod
    def _offsets(col: Sequence[int], u: int) -> array:
        """CSR offsets over a column, taken in the order sorted on
        it: id → [start, end)."""
        counts = Counter(col)
        return array("q", itertools.accumulate(itertools.chain(
            (0,), map(counts.get, range(u), itertools.repeat(0)))))

    @staticmethod
    def _pair_runs(packed: List[int], n: int) -> Tuple[array, array]:
        """Distinct packed pair keys and their runs' start offsets, for
        keys already sorted."""
        first = list(map(ne, packed, itertools.chain((None,), packed)))
        starts = array("q", itertools.compress(range(n), first))
        starts.append(n)
        return array("q", itertools.compress(packed, first)), starts

    # ------------------------------------------------------------------
    # The generation file
    # ------------------------------------------------------------------
    _FIELDS = ("scol", "rcol", "tcol", "perm_r", "perm_t",
               "start_s", "start_r", "start_t",
               "rt_keys", "rt_starts", "st_keys", "st_starts", "flags")
    #: A generation file's arrays in file order, with their typecodes:
    #: the name table, then the columns, indexes and row flags.
    _ARRAYS = tuple(zip(("name_offsets", "names_blob", "name_sort")
                        + _FIELDS, "qBi" + "i" * 5 + "q" * 7 + "B"))
    #: Magic, fact count, name count, store version, then each array's
    #: length in items.
    _HEADER = struct.Struct(f"=8s3q{len(_ARRAYS)}q")
    _MAGIC = b"REPROGN3"

    @classmethod
    def _placements(cls, counts: Sequence[int]) -> List[Tuple[int, int]]:
        """``(start, end)`` of each array in the file: after the
        header, each 8-byte aligned."""
        placed, end = [], cls._HEADER.size
        for (_, typecode), count in zip(cls._ARRAYS, counts):
            start = (end + 7) & ~7
            end = start + count * array(typecode).itemsize
            placed.append((start, end))
        return placed

    def share(self) -> str:
        """Write this generation to a fresh generation file.

        Returns the file's name, which is all another process needs to
        :meth:`attach` it: the header describes the layout.  The caller
        owns the file, by name, until :func:`unlink_generation` removes
        it (the pool's re-share at the next fold, or its close).  A
        write the file system refuses (``ENOSPC`` on a full
        ``/dev/shm``) removes the partial file and raises
        :class:`~repro.core.errors.ReplicaError`.
        """
        encoded = [s.encode("utf-8") for s in self.interner.names]
        # Ids in byte-lexicographic name order: the attach side
        # resolves str→id by bisecting this permutation against the
        # blob instead of materializing a dict over the whole table.
        buffers = [
            array("q", itertools.accumulate(
                itertools.chain((0,), map(len, encoded)))),
            b"".join(encoded),
            array("i", sorted(range(len(encoded)),
                              key=encoded.__getitem__)),
        ] + [getattr(self, field) for field in self._FIELDS]
        counts = [len(buffer) for buffer in buffers]
        chunks: List = [self._HEADER.pack(
            self._MAGIC, self.n, len(encoded), self.version, *counts)]
        end = self._HEADER.size
        for buffer, (start, stop) in zip(buffers,
                                         self._placements(counts)):
            chunks += [bytes(start - end), buffer]
            end = stop
        name = f"repro-gen-{os.getpid()}-{secrets.token_hex(4)}"
        path = _generation_path(name)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            _write_all(fd, chunks)
        except OSError as error:
            os.unlink(path)
            directory = os.path.dirname(path)
            raise ReplicaError(
                f"sharing a generation of {self.n} facts needs {end}"
                f" bytes in {directory} and writing them failed"
                f" ({error}): serve without replica workers"
                f" (--workers 0) or make room in {directory}") from error
        finally:
            os.close(fd)
        return name

    @classmethod
    def attach(cls, name: str) -> "ColumnarGeneration":
        """Map a generation file read-only, with zero copying of fact
        data.

        The columns, permutations, and CSR indexes are read directly
        from the mapping as typed memoryviews, and the name table
        resolves both directions lazily (:class:`SharedInterner`), so
        attach cost is independent of heap size.  A file that is not
        a generation file, is shorter than its header declares, or
        whose header's fact and name counts disagree with its arrays'
        lengths (it comes from outside this process) raises
        :class:`~repro.core.errors.ReplicaError` and stays unmapped.
        """
        path = _generation_path(name)
        with open(path, "rb") as file:
            size = os.fstat(file.fileno()).st_size
            if size < cls._HEADER.size:
                raise ReplicaError(
                    f"{path} is not a whole generation file ({size} bytes)")
            mapped = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        magic, n, n_names, version, *counts = cls._HEADER.unpack_from(mapped)
        placed = cls._placements(counts)
        length = dict(zip((field for field, _ in cls._ARRAYS), counts))
        if (magic != cls._MAGIC or min(counts) < 0
                or placed[-1][1] > len(mapped)
                or length["name_offsets"] != n_names + 1
                or any(length[field] != n
                       for field in ("scol", "rcol", "tcol", "flags"))):
            mapped.close()
            raise ReplicaError(
                f"{path} is not a whole generation file ({size} bytes)")
        gen = cls()
        gen._map, gen.n, gen.version = mapped, n, version
        whole = memoryview(mapped)
        gen._views = [whole[start:end] if typecode == "B"
                      else whole[start:end].cast(typecode)
                      for (_, typecode), (start, end)
                      in zip(cls._ARRAYS, placed)]
        offsets, blob, order, *fields = gen._views
        gen.interner = SharedInterner(blob, offsets, order, n_names)
        for field, view in zip(cls._FIELDS, fields):
            setattr(gen, field, view)
        return gen

    def close(self) -> None:
        """Release an attached generation's mapping (the file stays);
        a built generation has none and is left as it is."""
        if self._map is None:
            return
        for view in self._views:
            view.release()
        self._views = []
        try:
            self._map.close()
        except BufferError:  # pragma: no cover - a view kept elsewhere
            pass             # holds the mapping until it goes
        self._map = None

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def fact_at(self, position: int) -> Fact:
        """The fact at one column offset, decoded from its three ids
        on every call (nothing is kept)."""
        names = self.interner.names
        return Fact(names[self.scol[position]],
                    names[self.rcol[position]],
                    names[self.tcol[position]])

    def positions(self, spec: str,
                  ids: Tuple[int, ...]) -> Sequence[int]:
        """Column offsets of the facts matching one ground pattern.

        ``spec`` names the bound positions (``"s"``, ``"sr"``, …) and
        ``ids`` their interned values, in spec order.  Integer probes
        only — no strings, no tuple hashing.
        """
        [run], order = self._runs(spec, [ids])
        if not order:
            return run
        return (self.perm_r if order == 1 else self.perm_t)[
            run.start:run.stop]

    def positions_many(self, spec: str,
                       keys: Sequence[Tuple[Optional[int], ...]]
                       ) -> List[Sequence[int]]:
        """:meth:`positions` of each of a batch of keys sharing one
        ``spec`` (:meth:`_runs`): a run of the natural order is a
        ``range``, one of a permuted order that slice of the
        permutation."""
        runs, order = self._runs(spec, keys)
        if not order:
            return runs
        perm = self.perm_r if order == 1 else self.perm_t
        return [perm[run.start:run.stop] for run in runs]

    def count(self, spec: str, ids: Tuple[int, ...], masks=None) -> int:
        """Exact match count for one ground pattern, never a scan: an
        index length, or, among the rows of ``masks`` (:meth:`masks`),
        a count of the run's bytes."""
        [run], order = self._runs(spec, [ids])
        if masks is None:
            return len(run)
        return masks[order].count(1, run.start, run.stop)

    def _runs(self, spec: str, keys: Sequence[Tuple[Optional[int], ...]]
              ) -> Tuple[List[range], int]:
        """The run of rows each of a batch of keys sharing one ``spec``
        matches, and the physical order they are runs of: 0 natural,
        1 ``r``, 2 ``t``.  The index (CSR offsets, the natural order's
        columns, or a packed-pair array and its component order) and
        the id bound are resolved once for the batch, so a key costs
        its binary searches.  A key holding ``None`` or an id outside
        the base range (a scratch id would alias another pair once
        packed) gets an empty run.
        """
        if spec == "":
            return [range(self.n)] * len(keys), 0
        base = len(self.start_s) - 1
        runs: List[range] = []
        append = runs.append
        if spec in ("sr", "srt"):
            # The natural order is sorted by (s, r, t): a key's subject
            # run is bisected for its relationship, and an srt key's
            # relationship run for its target.
            start_s, rcol, tcol = self.start_s, self.rcol, self.tcol
            exact = spec == "srt"
            for key in keys:
                s = key[0]
                if None in key or s >= base:
                    append(_EMPTY)
                    continue
                r, hi = key[1], start_s[s + 1]
                lo = bisect_left(rcol, r, start_s[s], hi)
                hi = bisect_right(rcol, r, lo, hi)
                if exact:
                    lo = bisect_left(tcol, key[2], lo, hi)
                    hi = lo + 1 if lo < hi and tcol[lo] == key[2] else lo
                append(range(lo, hi))
            return runs, 0
        index, starts, order = self._INDEX[spec]
        starts = getattr(self, starts)
        if index is None:
            return [_EMPTY if i is None or i >= base
                    else range(starts[i], starts[i + 1])
                    for (i,) in keys], order
        index = getattr(self, index)
        last = len(index) - 1
        # st runs live in the (t, s) physical order.
        swap = spec == "st"
        for key in keys:
            a, b = key
            if a is None or b is None or a >= base or b >= base:
                append(_EMPTY)
                continue
            packed = b * base + a if swap else a * base + b
            k = bisect_left(index, packed)
            if k > last or index[k] != packed:
                append(_EMPTY)
                continue
            append(range(starts[k], starts[k + 1]))
        return runs, order

    #: spec -> (packed-pair keys or ``None`` for plain CSR offsets,
    #: run starts, the physical order the runs are of); ``sr`` and
    #: ``srt`` bisect the natural order's columns instead.
    _INDEX = {
        "s": (None, "start_s", 0),
        "r": (None, "start_r", 1),
        "t": (None, "start_t", 2),
        "rt": ("rt_keys", "rt_starts", 1),
        "st": ("st_keys", "st_starts", 2),
    }

    def position_of(self, fact: Fact) -> int:
        """Column offset of ``fact``, or -1 when it is not here."""
        [run], _ = self._runs("srt", [tuple(map(self.interner.id_of, fact))])
        return run.start if run else -1

    def contains_fact(self, fact: Fact) -> bool:
        return self.position_of(fact) >= 0

    def entity_occurrences(self, i: int, masks=None) -> int:
        """How many position slots entity ``i`` fills across all facts
        (three offset subtractions), or across the rows of ``masks``
        (:meth:`count`, thrice)."""
        if masks is None:
            return ((self.start_s[i + 1] - self.start_s[i])
                    + (self.start_r[i + 1] - self.start_r[i])
                    + (self.start_t[i + 1] - self.start_t[i]))
        return sum(self.count(spec, (i,), masks) for spec in "srt")

    def masks(self) -> Tuple[bytes, bytes, bytes]:
        """The :data:`STORED` rows, one byte each (1 or 0), in each
        physical order: natural, ``r`` and ``t``.  Built once per
        generation, for the base heap that holds those rows."""
        if self._masks is None:
            keep = bytes(self.flags)
            at = keep.__getitem__
            self._masks = (keep, bytes(map(at, self.perm_r)),
                           bytes(map(at, self.perm_t)))
        return self._masks

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Fact]:
        """Every fact in column order, decoded column by column."""
        name = self.interner.names.__getitem__
        return map(Fact, map(name, self.scol), map(name, self.rcol),
                   map(name, self.tcol))

    def nbytes(self) -> int:
        """Total flat-array payload (what a generation file's body
        holds)."""
        if self._views:
            return sum(v.nbytes for v in self._views)
        total = sum(len(a) * a.itemsize
                    for a in (getattr(self, f) for f in self._FIELDS))
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
    first touch of a key after a copy.  A layer no copy ever shared
    (a library database's) skips that bookkeeping.
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        #: ``id`` of every per-key set this store created itself since
        #: a :meth:`copy` (and may therefore mutate in place); ``None``
        #: until the first copy, when no set is shared.  Sets enter the
        #: indexes only through :meth:`_own` or :meth:`copy` — which
        #: disowns all of them on both sides — and never leave, so an
        #: owned id always names a live set of this store.
        self._owned: Optional[Set[int]] = None
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
        if self._owned is not None:
            self._own(fact)
        super()._index(fact)

    def _unindex(self, fact: Fact) -> None:
        if self._owned is not None:
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
    cheap to write to a generation file, and probed without tuple
    hashing.

    Nothing here folds by itself: :attr:`overlay_size` is the pressure
    gauge and :data:`OVERLAY_BUDGET` the bound.  The serving writer
    (:class:`repro.serve.DatabaseService`) folds its master's stores
    with :meth:`repro.db.Database.compact_store` whenever one exceeds
    the budget; a library caller who mutates a
    :class:`~repro.db.Database` by hand folds by calling it.

    Invariants: a store always has a generation (an empty one when it
    was built from no facts or cleared); the overlay and the
    (non-tombstoned) generation rows the store holds are disjoint, so
    merged iteration never deduplicates; every tombstone is one of
    those rows, and ``_removed_at`` holds exactly the tombstones'
    column offsets.
    """

    #: :meth:`count_estimate` is exact for patterns without repeated
    #: variables (index length lookups, tombstone- and
    #: overlay-adjusted) — the planner drops its sampling fudge.
    count_estimate_exact = True
    #: The generation rows the store holds, in each physical order
    #: (:meth:`ColumnarGeneration.masks`): ``None``, every row.
    _masks = None

    def __init__(self, generation: ColumnarGeneration):
        """Wrap a generation (built or attached); the overlay starts
        empty and the store version continues from the generation's
        recorded source version."""
        self._gen = generation
        #: How many generation rows the store holds (every one here).
        self._rows = generation.n
        self._overlay = _OverlayStore()
        self._removed = _OverlayStore()
        self._removed_at: Set[int] = set()
        self._version = generation.version
        self._frozen = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_facts(cls, facts: Iterable[Fact],
                   version: int = 0) -> "InternedFactStore":
        """A store whose entire content is one fresh generation."""
        return cls(ColumnarGeneration.build(facts, version=version))

    @classmethod
    def attach(cls, name: str) -> "InternedFactStore":
        """Attach to a generation file another process shared."""
        return cls(ColumnarGeneration.attach(name))

    @classmethod
    def consume(cls, store: FactStore,
                derived: Sequence[Fact]) -> "InternedFactStore":
        """Fold a closure's hash working store into one fresh generation
        at its version, emptying it.  ``derived`` are the facts the
        closure's rounds added to its seed: their rows hold 0, every
        other row (the seed's) :data:`STORED`.  The store's six index dicts and reference counts are
        dropped before the generation is built from its fact set, so
        the fold never holds both."""
        version = store.version
        facts = store._facts  # noqa: SLF001
        store.clear()
        facts.difference_update(derived)
        # The seed's rows go first, in subject-name order: ids are given
        # in first-intern order, so the generation's rows (and those a
        # checkpoint sorts) come in that order, as the rows of a heap
        # built from a snapshot do.
        return cls(ColumnarGeneration.build_flagged(itertools.chain(
            zip(sorted(facts, key=itemgetter(0)), itertools.repeat(STORED)),
            zip(derived, itertools.repeat(0))), version))

    @property
    def generation(self) -> ColumnarGeneration:
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
        """Release an attached generation's mapping."""
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
        if self._position(fact) >= 0:
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
        if fact in self._removed:
            return False
        position = self._position(fact)
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
        InternedFactStore.__init__(self, ColumnarGeneration.build(()))
        self._version = version

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        if fact in self._overlay:
            return True
        if fact in self._removed:
            return False
        return self._position(fact) >= 0

    def _position(self, fact: Fact) -> int:
        """The column offset of ``fact`` among the generation rows this
        store reads, or -1."""
        return self._gen.position_of(fact)

    def __len__(self) -> int:
        return self._rows - len(self._removed) + len(self._overlay)

    def __iter__(self) -> Iterator[Fact]:
        """Every fact once — the generation rows the store holds, then
        the overlay — selected on the id columns, then decoded column
        by column."""
        gen, keep = self._gen, self._kept()
        name = gen.interner.names.__getitem__
        return itertools.chain(map(Fact, *[
            map(name, itertools.compress(column, keep))
            for column in (gen.scol, gen.rcol, gen.tcol)]), self._overlay)

    def _kept(self) -> bytearray:
        """One byte per generation row, 1 where the store holds it."""
        keep = (bytearray(self._masks[0]) if self._masks
                else bytearray(b"\x01") * self._gen.n)
        for position in self._removed_at:   # the tombstones
            keep[position] = 0
        return keep

    def __bool__(self) -> bool:
        return len(self) > 0

    def copy(self) -> "InternedFactStore":
        """An independent mutable copy: the generation (immutable) is
        shared, only the overlay layers duplicate — this is what makes
        snapshot publication cheap at heap scale."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new._overlay = self._overlay.copy()
        new._removed = self._removed.copy()
        new._removed_at = self._removed_at.copy()
        new._frozen = False
        return new

    def entities(self) -> Set[str]:
        result = self._overlay.entities()
        result.update(map(self._gen.interner.names.__getitem__,
                          self._entity_ids()))
        return result

    def _entity_ids(self) -> List[int]:
        """The ids, ascending, of the generation entities the store
        holds: those its rows name (every id, without a mask; the held
        id columns, with one), less those only its tombstones still
        name — counted for the entities the tombstones name."""
        gen = self._gen
        id_of = gen.interner.id_of
        removed: Dict[int, int] = {
            id_of(name): count for name, count
            in self._removed._entity_refs.items()}  # noqa: SLF001
        masks = self._masks
        ids = range(len(gen.interner)) if masks is None else sorted(set(
            itertools.chain.from_iterable(
                itertools.compress(column, masks[0])
                for column in (gen.scol, gen.rcol, gen.tcol))))
        return [i for i in ids if i not in removed
                or gen.entity_occurrences(i, masks) > removed[i]]

    def relationships(self) -> Set[str]:
        result = self._overlay.relationships()
        removed = self._removed._relationship_refs  # noqa: SLF001
        gen = self._gen
        start_r = gen.start_r
        names = gen.interner.names
        for i in range(len(names)):
            if start_r[i + 1] > start_r[i] and gen.count(
                    "r", (i,), self._masks) > removed.get(names[i], 0):
                result.add(names[i])
        return result

    def has_entity(self, entity: str) -> bool:
        if self._overlay.has_entity(entity):
            return True
        gen = self._gen
        i = gen.interner.id_of(entity)
        if i is None:
            return False
        return gen.entity_occurrences(i, self._masks) \
            > self._removed._entity_refs.get(entity, 0)  # noqa: SLF001

    def has_relationship(self, relationship: str) -> bool:
        if self._overlay.has_relationship(relationship):
            return True
        gen = self._gen
        i = gen.interner.id_of(relationship)
        if i is None:
            return False
        return gen.count("r", (i,), self._masks) \
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
        resolved = self._spec_ids(s, r, t)
        if resolved is None:
            return ()
        positions = self._gen.positions(*resolved)
        if self._masks:
            positions = filter(self._masks[0].__getitem__, positions)
        if self._removed_at:
            positions = itertools.filterfalse(
                self._removed_at.__contains__, positions)
        return map(self._gen.fact_at, positions)

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
        if not len(overlay):
            return self._gen_facts(s, r, t)
        return itertools.chain(self._gen_facts(s, r, t),
                               overlay.lookup(s, r, t))

    # ------------------------------------------------------------------
    # Integer-domain batch surfaces (id-native query execution)
    # ------------------------------------------------------------------
    def id_codec(self) -> IdCodec:
        """A fresh per-execution codec over this store's generation."""
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
        Tombstones are filtered by generation offset.
        """
        gen = self._gen
        removed = self._removed_at
        cols = (gen.scol, gen.rcol, gen.tcol)
        out_cols = None if positions is None else [
            cols[p] for p in positions]
        runs = gen.positions_many(spec, keys)
        if self._masks:
            held = self._masks[0].__getitem__
            runs = [list(filter(held, run)) for run in runs]
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
        out = self._entity_ids()
        if len(self._overlay):
            included = set(out)
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
        # A constant the generation never interned matches nothing in
        # it (and so no tombstone either).
        resolved = self._spec_ids(s, r, t)
        if resolved is not None:
            total = self._gen.count(*resolved, self._masks)
            if self._removed_at:
                total -= len(self._removed.lookup(s, r, t))
        if self._overlay._facts:  # noqa: SLF001 - C-level truth test
            total += len(self._overlay.lookup(s, r, t))
        return total


class FlaggedFactStore(InternedFactStore):
    """An :class:`InternedFactStore` that holds only the
    :data:`STORED` rows of its generation, plus its own overlay and
    tombstones.

    A database's base heap is the :data:`STORED` rows of its closure's
    generation, so a fold, a share and an attach are paid once for
    both.  The rows are selected once per generation
    (:meth:`ColumnarGeneration.masks`): a probe skips the others by
    their byte, a count counts the bytes under its index run, and
    iterating selects the held id columns before decoding them.  Flags
    belong to the generation, and a store never changes them: adding a
    row the generation holds without the flag puts it in the overlay.
    """

    def __init__(self, generation: ColumnarGeneration):
        super().__init__(generation)
        self._masks = generation.masks()
        self._rows = self._masks[0].count(1)

    def _position(self, fact: Fact) -> int:
        position = self._gen.position_of(fact)
        return position if position >= 0 and self._masks[0][position] \
            else -1


def refound(store: FactStore, generation: ColumnarGeneration,
            stored: bool) -> InternedFactStore:
    """``store``'s facts as the :data:`STORED` rows of ``generation``
    (every row, unless ``stored``), at its version and frozen as it
    was."""
    new = (FlaggedFactStore(generation) if stored
           else InternedFactStore(generation))
    new._version = store.version  # noqa: SLF001
    if store.frozen:
        new.freeze()
    return new


def fold(stores: Sequence[FactStore]) -> List[InternedFactStore]:
    """Fold a database's stores onto one generation and re-found each
    on it (:func:`refound`).

    ``stores`` are the base heap and, once computed, its closure: a
    subset of it, reading its generation.  The new generation holds the
    last store's facts at its version, each row flagged :data:`STORED`
    when the base heap holds it; the last store reads every row.  A row
    of the old generation carries its flag by position: the base
    heap's tombstones clear it and each of its overlay facts the
    generation holds sets it; only the closure's overlay rows are
    flagged by membership.
    """
    base, closure = stores[0], stores[-1]
    gen = closure.generation
    flags = bytearray(gen.flags)
    for position in base._removed_at:  # noqa: SLF001
        flags[position] = 0
    for fact in base._overlay:  # noqa: SLF001
        position = gen.position_of(fact)
        if position >= 0:
            flags[position] = STORED
    # The closure iterates its generation rows, then its overlay.
    rows = zip(closure, itertools.chain(
        itertools.compress(flags, closure._kept()),  # noqa: SLF001
        (STORED if fact in base else 0
         for fact in closure._overlay)))  # noqa: SLF001
    generation = ColumnarGeneration.build_flagged(rows, closure.version)
    return [refound(store, generation, store is not closure)
            for store in stores]
