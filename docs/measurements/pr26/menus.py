"""What one menu costs in process, below the wire.

    python menus.py TREE [SEED]

``TREE`` is a checkout of this repository (the parent commit, or this
PR).  Builds the macro benchmark's browse-cold world with the tree's
own ``benchmarks/macro/world.py``, loads it into a plain ``Database``,
compacts it (closure first, so the integer-domain executor runs) and
times, pinned to one CPU, three kinds of probe on 64 employees / 64
chains the process has never seen:

* ``knows``: ``(EMPn, KNOWS, SKILLm)`` for a skill the employee lacks —
  the one-wave, three-candidate menu (3 of every 4 menus);
* ``chain``: ``(SOMEONE, RkC0, THING)`` — the depth-4 relationship
  chain, four waves, 15 candidates;
* ``ok``: ``(EMPn, EARNS, s)`` — a probe that succeeds (one evaluation,
  no wave).

Five passes over the texts (nothing in process remembers a menu, so
every pass computes); each kind reports the p50 of its quietest pass.
With ``overlay`` as a third argument eight facts are added and eight
removed after compaction, so every probe merges a non-empty overlay
and a tombstone layer (what write-mix and ingest-recover serve from).
"""

import gc
import json
import statistics
import sys
import time
from pathlib import Path

tree = Path(sys.argv[1]).resolve()
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
overlay = len(sys.argv) > 3 and sys.argv[3] == "overlay"
sys.path.insert(0, str(tree / "src"))
sys.path.insert(0, str(tree / "benchmarks" / "macro"))

import wire  # noqa: E402
from world import CHAINS, build_world  # noqa: E402

from repro.core.facts import Fact  # noqa: E402
from repro.db import Database  # noqa: E402

TEXTS = 64
PASSES = 5


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
    if overlay:
        for employee in world.order[-8:]:
            db.add(employee, "KNOWS", world.extra[employee])
            db.remove_fact(Fact(employee, "KNOWS", world.skill[employee]))
        db.view()
    db.hierarchy()
    employees = world.order[:TEXTS]
    kinds = {
        "knows": [f"({e}, KNOWS, {world.lacks[e]})" for e in employees],
        "chain": [f"(SOMEONE, R{k % CHAINS}C0, THING)"
                  for k in range(TEXTS)],
        "ok": [f"({e}, EARNS, s)" for e in employees],
    }
    report = {"tree": tree.name, "seed": seed, "overlay": overlay,
              "texts": TEXTS}
    gc.collect()
    for kind, texts in kinds.items():
        passes = [statistics.median(timed(db.probe, text) for text in texts)
                  for _ in range(PASSES)]
        report[f"{kind}_p50_us"] = round(1e6 * min(passes), 1)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
