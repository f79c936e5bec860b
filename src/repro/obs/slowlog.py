"""Slow-query log: a ring buffer of requests that blew their budget.

When a served request exceeds the service's ``slow_query_seconds``
threshold, a JSON-able record is appended here capturing what an
operator needs to diagnose it after the fact: the op and its payload
text, measured wall time vs the threshold, which process served it
(primary or a replica worker), the trace id if the request was traced,
and — for compiled queries — the plan's est-vs-actual operator rows
and replan count from the spine's per-thread
:data:`~repro.obs.telemetry.LAST_REQUEST` record.

The log is a bounded deque: old entries fall off, ``total`` keeps
counting, and :meth:`snapshot` is what the ``slowlog`` protocol verb
returns.  Worker processes don't hold the log — a replica measures its
own elapsed time and ships the record back inside the read result, and
the pool appends it to the primary's log — so one log covers the whole
pool.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional


def build_record(op: str, seconds: float, threshold: float,
                 text: str = "", source: str = "primary",
                 trace_id: Optional[str] = None,
                 deadline: Optional[float] = None,
                 plan: Optional[Dict[str, Any]] = None,
                 probe: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble one slow-query record.  ``plan`` is the dict shape
    produced by :func:`plan_summary`; ``probe`` is the autopsy dict
    :func:`repro.browse.retraction.probe` leaves on
    :data:`~repro.obs.telemetry.LAST_REQUEST` (waves, attempted
    candidates, the joins that answered them) for slow probe
    requests."""
    record: Dict[str, Any] = {
        "ts": time.time(),
        "op": op,
        "seconds": seconds,
        "threshold": threshold,
        "source": source,
    }
    if text:
        record["text"] = text
    if trace_id:
        record["trace_id"] = trace_id
    if deadline is not None:
        record["deadline"] = deadline
    if plan:
        record["plan"] = plan
    if probe:
        record["probe"] = probe
    return record


def plan_summary(run: Any) -> Optional[Dict[str, Any]]:
    """Compress a :class:`repro.query.exec.PlanRun` into the slow-log
    plan block: replan count plus per-operator est-vs-actual rows."""
    if run is None:
        return None
    return {
        "replans": getattr(run, "replans", 0),
        "operators": [stats.as_dict() for stats in run.operators],
    }


class SlowQueryLog:
    """Thread-safe bounded log of slow-request records."""

    def __init__(self, size: int = 128) -> None:
        self._lock = threading.Lock()
        self._records: Deque[Dict[str, Any]] = deque(maxlen=max(1, size))
        self.total = 0

    def add(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)
            self.total += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most recent records, oldest first (bounded by ``limit``)."""
        with self._lock:
            items = list(self._records)
        if limit is not None and limit >= 0:
            items = items[max(len(items) - limit, 0):]
        return items

    def snapshot(self, limit: Optional[int] = None) -> Dict[str, Any]:
        return {"total": self.total, "records": self.records(limit)}
