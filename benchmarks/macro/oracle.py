"""The correctness oracle: every answer, from the reference engine.

Built untimed in the harness process from the same seed as the server's
directory: a ``Database(query_engine="reference")`` answers queries with
the tuple-at-a-time backtracking evaluator and probes with
``reference_probe`` (the candidate-at-a-time wave loop the production
retraction code is pinned against).  Nothing the server executes on its
read path — compiled plans, plan cache, interned stores, menu cache —
is shared with it.

Expected answers are produced in *wire form* (what ``ServiceClient``
returns: sorted row lists, rendered navigation tables, probe dicts), so
checking a window is one ``==`` per request.  The child brings the
in-process answers of the traced ladder to the same form
(``inproc.wire_form``) before it replies.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.browse.retraction import reference_probe
from repro.core.facts import Fact
from repro.db import Database
from repro.query.evaluate import Evaluator

from inproc import rows, wire_form
from world import Session, World


class Oracle:
    """Reference answers for a plan, tracking the heap through writes.

    The reference database is synchronised lazily: writes only move a
    cheap set-based heap model, and the database catches up when a read
    actually has to be evaluated.  Answers are memoised on ``(text,
    heap state)``, so write-mix — which keeps returning to the same 65
    states — costs 65 evaluations per text instead of one per request.
    """

    def __init__(self, world: World):
        self._db = Database(world.facts, with_axioms=False,
                            query_engine="reference")
        self._db.view()
        # The heap is the world plus ``_added`` minus ``_removed``.
        self._base = frozenset(world.facts)
        self._added: Set[Fact] = set()
        self._removed: Set[Fact] = set()
        self._unapplied: List[Tuple[bool, Fact]] = []
        self._state_ids: Dict[Tuple[frozenset, frozenset], int] = {}
        self._state = self._state_id()
        self._memo: Dict[Tuple[str, str, int], object] = {}
        #: Ordered menu options per ``(failing probe text, heap state)``.
        self.menus: Dict[Tuple[str, int], List[str]] = {}
        self.evaluations = 0

    def _state_id(self) -> int:
        key = (frozenset(self._added), frozenset(self._removed))
        return self._state_ids.setdefault(key, len(self._state_ids))

    def _write(self, adding: bool, fact: Fact) -> bool:
        """Move the heap model; True if the write changes anything."""
        stored = fact in self._base
        present = fact in self._added or (
            stored and fact not in self._removed)
        if present == adding:
            return False
        # Undo the opposite edit if there was one, else record this one.
        undo, record = ((self._removed, self._added) if adding
                        else (self._added, self._removed))
        if stored == adding:
            undo.discard(fact)
        else:
            record.add(fact)
        self._unapplied.append((adding, fact))
        self._state = self._state_id()
        return True

    def _sync(self) -> None:
        for adding, fact in self._unapplied:
            if adding:
                self._db.add_fact(fact)
            else:
                self._db.remove_fact(fact)
        self._unapplied.clear()

    def _evaluate(self, kind: str, text: str):
        self._sync()
        self.evaluations += 1
        db = self._db
        if kind in ("navigate", "shows"):
            return db.navigate(text).render()
        if kind == "query":
            return rows(db.query(text))
        outcome = reference_probe(Evaluator(db.view()), text,
                                  db.hierarchy())
        self.menus[(text, self._state)] = \
            [success.describe() for success in outcome.successes]
        return wire_form(kind, outcome)

    def expect(self, request) -> object:
        """The wire answer this request must get, given every request
        passed to :meth:`expect` before it."""
        kind, _verb, argument = request
        if kind in ("add", "remove"):
            return self._write(kind == "add", Fact(*argument))
        if kind == "checkpoint":
            return True
        key = (kind if kind != "shows" else "navigate", argument,
               self._state)
        if key not in self._memo:
            self._memo[key] = self._evaluate(kind, argument)
        return self._memo[key]

    def reset(self) -> None:
        """Back to the world: undo every write seen so far (a new
        server starts from a fresh copy of the directory)."""
        for fact in list(self._added):
            self._write(False, fact)
        for fact in list(self._removed):
            self._write(True, fact)

    def menu_options(self, text: str) -> List[str]:
        """The ordered menu of a failing probe just passed to
        :meth:`expect` (empty for a probe that succeeded)."""
        return self.menus[(text, self._state)]

    def expect_all(self, sessions: Sequence[Session]) -> List[list]:
        return [[self.expect(request) for request in session]
                for session in sessions]

    def heap_delta(self) -> Tuple[Set[Fact], Set[Fact]]:
        """``(added, removed)`` relative to the world: what a restarted
        server must and must not contain."""
        return set(self._added), set(self._removed)
