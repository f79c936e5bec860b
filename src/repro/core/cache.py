"""A small LRU cache for versioned query/navigation results.

The paper's principal retrieval mode is browsing (§5): the user asks
for the same neighborhoods and the same queries again and again while
the database barely changes.  Because :class:`~repro.core.store.FactStore`
carries a monotone mutation version, a result computed against version
*v* stays valid exactly until the version moves — so cache keys simply
embed the version and invalidation is free: stale entries are never
*hit* again, and the LRU discipline ages them out.

Hit/miss totals are exposed as attributes (for tests that run with
telemetry off) and as the ``cache.hits`` / ``cache.misses`` counters
of :mod:`repro.obs.telemetry` when it is enabled.

Version keys survive storage changes, not just snapshots.  Interned
columnar stores (:mod:`repro.core.interned`) preserve the version of
whatever they were compacted from — ``Database.compact_store()`` and
replica generation attach both carry the source store's version — so a
result computed before compaction is still *hit* after it: the
representation changed, the state (and therefore the key) did not.
Replicas continue the same version line through delta replay, which is
what lets the pool share one warm cache discipline across processes.

The cache is thread-safe: the serving layer (:mod:`repro.serve`) shares
one instance across every published snapshot so warm entries survive
snapshot publication (an unchanged version means unchanged keys), and
concurrent readers hit it simultaneously.  A single lock guards the
``OrderedDict`` — the critical sections are a few dict operations, far
cheaper than recomputing any cached result.

Example::

    from repro.core.cache import LRUCache

    cache = LRUCache(maxsize=2)
    cache.put(("query", "(x, ≺, y)", 7), frozenset({("A", "B")}))
    cache.get(("query", "(x, ≺, y)", 7))   # hit
    cache.get(("query", "(x, ≺, y)", 8))   # miss: version moved
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from . import deadline as _deadline
from ..obs import telemetry as _obs

#: Sentinel distinguishing "missing" from a cached falsy value.
_MISSING = object()

#: How long a single-flight follower sleeps per wait slice — short
#: enough that a query deadline still fires promptly mid-wait.
_FLIGHT_WAIT_SLICE = 0.05


class _Flight:
    """One in-progress computation other callers can wait on."""

    __slots__ = ("event", "value")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = _MISSING


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Values are returned exactly as stored; callers that hand cached
    objects to the outside world must treat them as read-only (or copy
    on the way out, as the query layer does with its result sets).
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._flights: dict = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for ``key`` (marking it recently used), or
        ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                missed = True
            else:
                self._data.move_to_end(key)
                self.hits += 1
                missed = False
        if missed:
            if _obs.ENABLED:
                _obs.TELEMETRY.count("cache.misses")
            return default
        if _obs.ENABLED:
            _obs.TELEMETRY.count("cache.hits")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``key`` → ``value``, evicting the oldest entries when
        the cache is over capacity."""
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            if _obs.ENABLED:
                _obs.TELEMETRY.count("cache.evictions", evicted)

    def get_or_compute(self, key: Hashable, compute) -> Any:
        """The cached value for ``key``, computing it on a miss with
        single-flight stampede protection.

        Exactly one caller (the *leader*) runs ``compute`` per key;
        concurrent callers for the same key wait for its result instead
        of recomputing — each such save is counted as ``coalesced``
        (also the ``cache.coalesced`` telemetry counter).  Waiters
        sleep in short slices so an active query deadline still fires.
        Errors are never cached: the leader's exception propagates to
        the leader alone, and its waiters fall back to computing for
        themselves.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                self.hits += 1
            else:
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = _Flight()
                    self.misses += 1
                    leader = True
                else:
                    leader = False
        if value is not _MISSING:
            if _obs.ENABLED:
                _obs.TELEMETRY.count("cache.hits")
            return value
        if leader:
            if _obs.ENABLED:
                _obs.TELEMETRY.count("cache.misses")
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    self._flights.pop(key, None)
                flight.event.set()
                raise
            self.put(key, value)
            with self._lock:
                self._flights.pop(key, None)
            flight.value = value
            flight.event.set()
            return value
        # Follower: wait out the leader's computation.
        while not flight.event.wait(_FLIGHT_WAIT_SLICE):
            if _deadline.ACTIVE:
                _deadline.check()
        value = flight.value
        if value is not _MISSING:
            with self._lock:
                self.coalesced += 1
            if _obs.ENABLED:
                _obs.TELEMETRY.count("cache.coalesced")
            return value
        # The leader failed; its error was not cached — compute for
        # ourselves (a second failure propagates here, uncoalesced).
        with self._lock:
            self.misses += 1
        if _obs.ENABLED:
            _obs.TELEMETRY.count("cache.misses")
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def stats(self) -> dict:
        """Hit/miss/eviction totals plus current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "coalesced": self.coalesced,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }

    def __repr__(self) -> str:
        return (f"LRUCache({len(self._data)}/{self.maxsize},"
                f" {self.hits} hits, {self.misses} misses)")
