"""The price of the deletion: a repeated read *in process*.

    python inproc_price.py TREE [SEED]

``TREE`` is a checkout of this repository (the parent commit, or this
PR).  Builds the macro benchmark's 5 000-employee world with the
tree's own ``benchmarks/macro/world.py``, founds a ``DatabaseService``
on it (so the snapshot is the interned, published one a server reads)
and times, on ``service.read_view()``, pinned to one CPU:

* **first**: 192 never-seen texts of each kind, one call each — what a
  request that misses every cache pays (p50);
* **repeat**: the same texts again, three more passes — what the
  second and later identical calls pay (p50 over the three passes).

Texts go in blocks of 32 employees (first pass, then the three repeat
passes, then the next block): the size of the benchmark's hot set and
what the parent's 512-entry LRU holds of menus and their candidates —
with all 192 at once it thrashes and the parent's own menu repeats
miss (315–350 µs instead of ≈ 10).

The kinds are the browsing session's four requests: ``navigate`` (a
star), ``probe`` (succeeds, one row), ``menu`` (a failing probe and
its one-wave retraction menu) and ``join`` (the 100-row four-atom
conjunction).  Plans are warm for neither pass's first text and the
plan cache is the same on both trees; the only thing that differs is
whether a whole answer is remembered below the wire.
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
from world import browse_session, build_world  # noqa: E402

from repro.db import Database  # noqa: E402
from repro.serve import DatabaseService  # noqa: E402

BLOCK, BLOCKS = 32, 6
REPEAT_PASSES = 3


def timed(call, text) -> float:
    started = time.perf_counter()
    call(text)
    return time.perf_counter() - started


def main() -> None:
    wire.pin_to_one_cpu()
    world = build_world(seed, "browse-cold")
    service = DatabaseService(Database(world.facts, with_axioms=False))
    snap = service.read_view()
    # Sessions whose menu is the one-wave KNOWS probe (index % 4 != 3),
    # on employees in the world's seeded order: no text repeats.
    sessions = [browse_session(world, employee, 0)
                for employee in world.order[:BLOCK * BLOCKS]]
    calls = {"navigate": snap.navigate, "probe": snap.probe,
             "menu": snap.probe, "join": snap.query}
    report = {"tree": tree.name, "seed": seed, "texts": len(sessions)}
    gc.collect()
    for column, kind in enumerate(("navigate", "probe", "menu", "join")):
        texts = [session[column][2] for session in sessions]
        call = calls[kind]
        first, repeat = [], []
        for start in range(0, len(texts), BLOCK):
            block = texts[start:start + BLOCK]
            first += [timed(call, text) for text in block]
            repeat += [timed(call, text)
                       for _ in range(REPEAT_PASSES) for text in block]
        report[kind] = {
            "first_p50_us": round(1e6 * statistics.median(first), 1),
            "repeat_p50_us": round(1e6 * statistics.median(repeat), 1)}
    service.close()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
