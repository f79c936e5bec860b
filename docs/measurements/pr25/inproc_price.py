"""The price of the deletion: a text repeated *in process* on an
unchanged database is lowered again.

    python inproc_price.py TREE [SEED]

``TREE`` is a checkout of this repository (the parent commit, or this
PR).  Builds the macro benchmark's 5 000-employee world with the
tree's own ``benchmarks/macro/world.py``, loads it into a plain
``Database``, compacts it (closure first, so the integer-domain
executor runs) and times, pinned to one CPU, 64 employees' worth of
three kinds of read:

* ``atom``: ``db.query("(E, EARNS, s)")`` — one atom, one row;
* ``join``: ``db.query("(E, WORKS-FOR, d) and (d, ∈, DEPARTMENT)")``
  — two atoms, one row;
* ``probe``: ``db.probe("(E, EARNS, pay)")`` — a probe that succeeds.

**first** is one call of each never-seen text (p50); **repeat** is the
same texts again, five more passes (p50 over the passes).  Nothing is
written in between, so at the parent every repeat is a plan-cache hit
with a matching data token (the best case the cache had); on this PR
it is a parse-memo hit, a safety check, a lowering and an execution.
"""

import gc
import json
import statistics
import sys
import time
from pathlib import Path

tree = Path(sys.argv[1]).resolve()
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
sys.path.insert(0, str(tree / "src"))
sys.path.insert(0, str(tree / "benchmarks" / "macro"))

import wire  # noqa: E402
from world import build_world  # noqa: E402

from repro.db import Database  # noqa: E402

EMPLOYEES = 64
REPEAT_PASSES = 5


def timed(call, text) -> float:
    started = time.perf_counter()
    call(text)
    return time.perf_counter() - started


def main() -> None:
    wire.pin_to_one_cpu()
    world = build_world(seed, "browse-cold")
    db = Database(world.facts, with_axioms=False)
    db.view()
    db.compact_store()
    db.hierarchy()
    employees = world.order[:EMPLOYEES]
    kinds = {
        "atom": (db.query, "({e}, EARNS, s)"),
        "join": (db.query, "({e}, WORKS-FOR, d) and (d, ∈, DEPARTMENT)"),
        # Another variable name: not ``atom``'s text, so nothing of it is
        # already parsed or planned.
        "probe": (db.probe, "({e}, EARNS, pay)"),
    }
    report = {"tree": tree.name, "seed": seed, "texts": EMPLOYEES}
    gc.collect()
    for kind, (call, template) in kinds.items():
        texts = [template.format(e=e) for e in employees]
        first = [timed(call, text) for text in texts]
        repeat = [timed(call, text)
                  for _ in range(REPEAT_PASSES) for text in texts]
        report[kind] = {
            "first_p50_us": round(1e6 * statistics.median(first), 1),
            "repeat_p50_us": round(1e6 * statistics.median(repeat), 1)}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
