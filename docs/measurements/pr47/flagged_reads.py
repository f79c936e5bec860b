"""flagged_reads.py PARENT CHANGE OUT.jsonl [ROUNDS] — the read surfaces
of the stores that hold only some of a generation's rows, with
composition off and on, in fresh interpreters of two trees.

Each probe is one process that sets up the write-mix master as
``benchmarks/macro/child.py`` does (``open_database`` → ``view()`` →
``compact_store()``), then times, in microseconds (the median of seven
batches, each the mean of many calls):

* on the base heap (``db.facts``; at the parent its own generation):
  ``count_estimate`` of four patterns, ``has_entity``,
  ``has_relationship``, and ``entities()`` / ``relationships()``, the
  two ``Database.stats()`` reads;
* after ``limit(2)`` → ``view()`` → ``compact_store()``, composition
  on: ``count_estimate`` of the ``≺`` pattern on the standard closure
  (the write path's ``_isa_count``; at the change a store of the
  ``STANDARD`` rows) and of two patterns on the full closure's store,
  its ``entity_id_domain``, ``has_entity`` and a ``lookup``, and a
  membership test.

It also records the number of rows each store holds and the
composition facts the full closure adds.  The trees alternate, the
side that runs first swapped every round (default 10 rounds); the
script is pinned to one CPU.  The directory is written once by
PARENT's ``benchmarks/macro/world.py``.  One JSON object per line to
OUT.jsonl.  Run it alone.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = """
import json, statistics, sys, time
src, macro, directory = sys.argv[1:4]
sys.path[:0] = [src, macro]
from repro.core.entities import ISA, MEMBER
from repro.core.facts import Fact, Template, Variable
from repro.storage.session import open_database

db, session = open_database(directory)
db.view()
session.close()
db.compact_store()
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def us(call, calls):
    batches = []
    for _ in range(7):
        began = time.perf_counter()
        for _ in range(calls):
            call()
        batches.append((time.perf_counter() - began) / calls)
    return round(1e6 * statistics.median(batches), 2)


row = {}
base = db.facts
for name, pattern in (("s", Template("EMP7", Y, Z)),
                      ("rt", Template(X, MEMBER, "EMPLOYEE")),
                      ("t", Template(X, Y, "SKILL3")),
                      ("r", Template(X, "KNOWS", Z))):
    row[f"base_count_{name}_us"] = us(
        lambda: base.count_estimate(pattern), 2000)
row["base_has_entity_us"] = us(lambda: base.has_entity("EMP7"), 2000)
row["base_has_relationship_us"] = us(
    lambda: base.has_relationship("KNOWS"), 2000)
row["base_entities_us"] = us(base.entities, 10)
row["base_relationships_us"] = us(base.relationships, 10)
row["base_rows"] = len(base)

db.limit(2)
db.view()
db.compact_store()
standard = db.standard_closure().store
full = db.closure().store
row["standard_rows"] = len(standard)
row["composed_rows"] = len(full) - len(standard)
isa = Template(X, ISA, Y)
row["standard_count_isa_us"] = us(lambda: standard.count_estimate(isa),
                                  2000)
for name, pattern in (("s", Template("EMP7", Y, Z)),
                      ("rt", Template(X, MEMBER, "EMPLOYEE"))):
    row[f"full_count_{name}_us"] = us(
        lambda: full.count_estimate(pattern), 2000)
codec = full.id_codec()
row["full_entity_id_domain_us"] = us(
    lambda: full.entity_id_domain(codec.encode), 10)
row["full_has_entity_us"] = us(lambda: full.has_entity("EMP7"), 2000)
row["full_lookup_s_us"] = us(lambda: list(full.lookup("EMP7")), 2000)
fact = Fact("EMP7", MEMBER, "EMPLOYEE")
row["full_contains_us"] = us(lambda: fact in full, 2000)
print(json.dumps(row))
"""


def probe(tree: str, directory: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(Path(tree) / "src"),
         str(Path(tree) / "benchmarks" / "macro"), directory],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(parent: str, change: str, log: str, rounds: int) -> None:
    os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})
    with tempfile.TemporaryDirectory() as scratch:
        directory = str(Path(scratch) / "write-mix")
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
             "from world import build_world, write_directory\n"
             "from pathlib import Path\n"
             "d = Path(sys.argv[3]); d.mkdir(parents=True)\n"
             "write_directory(build_world(1, 'write-mix'), d,"
             " 'write-mix')",
             str(Path(parent) / "src"),
             str(Path(parent) / "benchmarks" / "macro"), directory],
            check=True)
        for index in range(rounds):
            order = (parent, change) if index % 2 == 0 else (change, parent)
            for position, tree in enumerate(order):
                row = probe(tree, directory)
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(
                        {"side": "parent" if tree == parent else "change",
                         "round": index,
                         "ran": "first" if position == 0 else "second",
                         **row}) + "\n")
            print(f"round {index}: done", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3],
         int(sys.argv[4]) if len(sys.argv) > 4 else 10)
