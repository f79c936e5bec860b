"""Append-only journal of fact mutations.

The paper defers storage strategies to future work (§6.2); this is the
minimal durable substrate a usable library needs: every ``add`` /
``remove`` appends one JSON line, and recovery replays the journal over
the latest snapshot.  One line per mutation keeps the format greppable
and the writes crash-safe up to the last completed line: a torn final
line is ignored on lenient replay, and :meth:`Journal.repair_tail`
(which a recovering session calls) cuts it off, so the next append
starts a line of its own.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..core.errors import StorageError
from ..core.facts import Fact

OP_ADD = "add"
OP_REMOVE = "remove"

_VALID_OPS = frozenset({OP_ADD, OP_REMOVE})


@dataclass(frozen=True)
class JournalEntry:
    """One recorded mutation."""

    op: str
    fact: Fact

    def to_json(self) -> str:
        return json.dumps({"op": self.op, "fact": list(self.fact)},
                          ensure_ascii=False)

    @staticmethod
    def from_json(line: str) -> "JournalEntry":
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise StorageError(f"malformed journal line: {line!r}") from error
        if not isinstance(record, dict):
            raise StorageError(f"journal line is not an object: {line!r}")
        op = record.get("op")
        raw_fact = record.get("fact")
        if op not in _VALID_OPS:
            raise StorageError(f"unknown journal op in line: {line!r}")
        if (not isinstance(raw_fact, list) or len(raw_fact) != 3
                or not all(isinstance(c, str) for c in raw_fact)):
            raise StorageError(f"malformed fact in journal line: {line!r}")
        return JournalEntry(op=op, fact=Fact(*raw_fact))


class Journal:
    """A file-backed, append-only mutation log."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _ensure_open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, op: str, fact: Fact) -> None:
        """Record one mutation and flush it to the OS."""
        if op not in _VALID_OPS:
            raise StorageError(f"unknown journal op: {op!r}")
        handle = self._ensure_open()
        handle.write(JournalEntry(op, fact).to_json() + "\n")
        handle.flush()

    def append_batch(self, mutations) -> int:
        """Record many mutations with one write and one flush.

        ``mutations`` is an iterable of ``(op, fact)`` pairs.  The
        serving layer journals each writer batch this way, so the
        per-mutation flush cost is paid once per *batch* — the storage
        half of write coalescing.  Returns the number of entries
        written.  Crash safety is per line, exactly as with
        :meth:`append`: a torn final line is dropped on lenient replay
        and cut off by :meth:`repair_tail`.
        """
        lines = []
        for op, fact in mutations:
            if op not in _VALID_OPS:
                raise StorageError(f"unknown journal op: {op!r}")
            lines.append(JournalEntry(op, fact).to_json())
        if not lines:
            return 0
        handle = self._ensure_open()
        handle.write("\n".join(lines) + "\n")
        handle.flush()
        return len(lines)

    def sync(self) -> None:
        """fsync the journal (durability point)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def truncate(self) -> None:
        """Discard all entries (after a snapshot has captured them)."""
        self.close()
        if self.path.exists():
            self.path.unlink()

    def repair_tail(self) -> int:
        """End the file at a line boundary, as lenient replay reads it.

        A final line that does not parse (a torn append) is cut off; a
        complete final record that lacks its ``\\n`` gets one.  Either
        would otherwise merge with the next append and be lost with it.
        Returns the bytes cut or added (0 for a file already whole,
        which is only read).
        """
        if not self.path.exists():
            return 0
        data = self.path.read_bytes()
        terminated = data.endswith(b"\n")
        end = len(data) - terminated
        start = data.rfind(b"\n", 0, end) + 1
        line = data[start:end]
        if not data or (terminated and not line.strip()):
            return 0
        try:
            JournalEntry.from_json(line.decode("utf-8"))
        except (StorageError, UnicodeDecodeError):
            os.truncate(self.path, start)
            return len(data) - start
        if terminated:
            return 0
        with open(self.path, "ab") as handle:
            handle.write(b"\n")
        return 1

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(self, strict: bool = True) -> Iterator[JournalEntry]:
        """Replay the journal.

        Args:
            strict: if False, a malformed *final* line (torn write) is
                ignored instead of raising; malformed interior lines
                always raise.
        """
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as handle:
            lines: List[str] = [
                line.rstrip("\n") for line in handle
            ]
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                yield JournalEntry.from_json(line)
            except StorageError:
                if not strict and index == len(lines) - 1:
                    return
                raise

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
