"""Snapshots: a full, atomic image of the database state.

A snapshot records the base facts (never the closure — derived facts
are recomputed), the rules defined from text (name, text, constraint
flag), the rule enable/disable map, and the composition limit.
Written via a temporary file + rename so a crash mid-write leaves the
previous snapshot intact.

Both directions run at C speed.  The file is one compact line written
by the C JSON encoder, facts sorted as tuples (which sort exactly as
their component lists would); it parses to the same object as the
indented layout earlier releases wrote, and either reads the other's.
Reading validates the fact rows in bulk — one pass each for row types,
row lengths and component types — and walks them row by row only to
name the first bad one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.errors import StorageError
from ..core.facts import Fact

FORMAT_VERSION = 1


@dataclass
class SnapshotState:
    """Everything a snapshot round-trips."""

    facts: List[Fact]
    rule_states: Dict[str, bool] = field(default_factory=dict)
    composition_limit: Optional[int] = 1
    #: ``(name, text, is_constraint)`` of each rule defined from text,
    #: re-defined on recovery before ``rule_states`` is applied.
    rules: List[Tuple[str, str, bool]] = field(default_factory=list)

    def to_json(self) -> str:
        record = {
            "version": FORMAT_VERSION,
            "composition_limit": self.composition_limit,
            "rule_states": self.rule_states,
            # Plain tuples: the encoder copies a tuple subclass (Fact)
            # into a list first.
            "facts": sorted(map(tuple, self.facts)),
        }
        if self.rules:      # absent, the layout is the one readers had
            record["rules"] = [list(rule) for rule in self.rules]
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"),
                          check_circular=False)   # strings, bools, ints

    @staticmethod
    def from_json(text: str) -> "SnapshotState":
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise StorageError("malformed snapshot") from error
        if not isinstance(record, dict):
            raise StorageError("snapshot is not an object")
        version = record.get("version")
        if version != FORMAT_VERSION:
            raise StorageError(f"unsupported snapshot version: {version!r}")
        rows = record.get("facts", [])
        if (type(rows) is list
                and set(map(type, rows)) <= {list}
                and set(map(len, rows)) <= {3}
                and set(map(type, chain.from_iterable(rows))) <= {str}):
            facts = list(map(Fact._make, rows))
        else:
            facts = _facts_row_by_row(rows)
        rule_states = record.get("rule_states", {})
        if not isinstance(rule_states, dict) or not all(
                isinstance(k, str) and isinstance(v, bool)
                for k, v in rule_states.items()):
            raise StorageError("malformed rule_states in snapshot")
        limit = record.get("composition_limit", 1)
        if limit is not None and not isinstance(limit, int):
            raise StorageError("malformed composition_limit in snapshot")
        rules = record.get("rules", [])
        if not isinstance(rules, list) or not all(
                isinstance(rule, list) and len(rule) == 3
                and isinstance(rule[0], str) and isinstance(rule[1], str)
                and isinstance(rule[2], bool) for rule in rules):
            raise StorageError("malformed rules in snapshot")
        return SnapshotState(facts=facts, rule_states=rule_states,
                             composition_limit=limit,
                             rules=[tuple(rule) for rule in rules])


def _facts_row_by_row(rows) -> List[Fact]:
    """The facts of rows a bulk check refused: raises on the first bad
    row, naming it."""
    facts: List[Fact] = []
    for raw in rows:
        if (not isinstance(raw, list) or len(raw) != 3
                or not all(isinstance(c, str) for c in raw)):
            raise StorageError(f"malformed fact in snapshot: {raw!r}")
        facts.append(Fact(*raw))
    return facts


def write_snapshot(path: Union[str, Path], state: SnapshotState) -> int:
    """Atomically and durably write a snapshot (tmp file + rename);
    returns its size in bytes.

    The state is encoded before the temporary file is opened, and a
    write that fails removes the temporary file: a failed checkpoint
    leaves the directory as it found it.  The file is synced before the
    rename and the directory after it, so once this returns the new
    snapshot survives a host crash — the journal it replaces may then
    be truncated.
    """
    path = Path(path)
    data = state.to_json().encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(temporary, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return len(data)


def read_snapshot(path: Union[str, Path]) -> SnapshotState:
    """Load a snapshot; raises :class:`StorageError` when malformed."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"no snapshot at {path}")
    with open(path, encoding="utf-8") as handle:
        return SnapshotState.from_json(handle.read())
