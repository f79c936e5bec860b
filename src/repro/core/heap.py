"""Heap builds out of the cyclic collector's way.

A server's set-up and every writer fold build O(heap) object graphs:
journal recovery, the closure (§2.6), the interned generations.  While
they are built CPython's cyclic collector would re-scan them — hundreds
of young passes and a few full passes, each walking what the build has
made so far — and the first young pass after the build would still
walk all of it.  :func:`heap_build` takes the build out of its way:

* the collector is paused for the build's duration, process-wide (the
  collector is one per interpreter, so this is too);
* when the outermost build ends, everything it left is *promoted* to
  the oldest generation (``gc.freeze()`` then ``gc.unfreeze()``: two
  O(1) list splices), so no young pass scans it again and the next
  full pass, whenever the collector's own thresholds call one, still
  can — a cycle the build left behind is collected, not kept;
* the collector's enabled state is restored as the build found it.

Builds nest and may run on several threads at once (a writer's fold
beside a second service's start); only the outermost exit promotes and
restores.  It restores the state the *first* build found: a caller that
disabled the collector before a build (or after it) keeps it disabled,
but a ``gc.disable()`` made while a build runs — on any thread — is
undone when the build ends, because a disable of a collector that is
already paused cannot be told apart from no call at all.  A caller that
froze objects itself keeps exactly those frozen: ``gc.unfreeze()``
would move them too, so a build that finds anything frozen pauses the
collector but promotes nothing.  No threshold is changed.

Example::

    from repro.core.heap import heap_build

    with heap_build():
        index = {n: [n] for n in range(100_000)}
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

# The collector is process-global, so its pause must be too: one count
# of builds in progress and the state the outermost one found.
_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def heap_build() -> Iterator[None]:
    """Run the block with the cyclic collector paused; on the outermost
    exit, promote what it left to the oldest generation and restore
    the enabled state the outermost build found."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                if _was_enabled:
                    gc.enable()
