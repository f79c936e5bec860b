"""same_closure.py TREE [WORKLOAD…] — one JSON line per world: a digest
of everything a closure of that world reports, so two trees can be
compared line for line.

Per workload world (``benchmarks/macro/world.py``, seed 1): the
standard closure of a ``Database`` with ``trace=True`` (hash store), a
``dispatched_closure`` of the same facts on an interned base, and, on
the hash database, 40 stored ``KNOWS`` facts removed and re-added (the
write path: Delete/Rederive and insertion extension).  Each digest is a
SHA-256 of the closure's facts in iteration order, the iteration count,
``rule_firings`` and the provenance map's items in insertion order.
Run both trees with the same ``PYTHONHASHSEED`` (set-iteration order
depends on it); ``python3 same_closure.py PARENT > a; python3
same_closure.py CHANGE > b; diff a b``.
"""
import hashlib
import json
import os
import sys

tree = os.path.abspath(sys.argv[1])
sys.path[:0] = [os.path.join(tree, "src"), tree]

from benchmarks.macro.world import WORKLOADS, build_world  # noqa: E402
from repro.core.interned import InternedFactStore  # noqa: E402
from repro.core.facts import Fact  # noqa: E402
from repro.db import Database  # noqa: E402
from repro.rules.dispatch import dispatched_closure  # noqa: E402


def digest(result) -> dict:
    h = hashlib.sha256()
    for fact in result.store:
        h.update(repr(tuple(fact)).encode())
    provenance = hashlib.sha256()
    for fact, why in (result.provenance or {}).items():
        provenance.update(repr((tuple(fact), why.rule,
                                [tuple(p) for p in why.premises])).encode())
    return {"facts": len(result.store), "store_order": h.hexdigest()[:16],
            "iterations": result.iterations,
            "firings": sorted(result.rule_firings.items()),
            "provenance": len(result.provenance or {}),
            "provenance_order": provenance.hexdigest()[:16]}


for workload in sys.argv[2:] or WORKLOADS:
    world = build_world(1, workload)
    db = Database(world.facts, trace=True)
    hashed = digest(db.standard_closure())
    interned = digest(dispatched_closure(
        InternedFactStore.from_facts(db.facts), list(db.rules),
        db.rule_context(), trace=True, compiled=db.rules.compiled()))
    knows = sorted(f for f in db.facts if f[1] == "KNOWS")[:40]
    for fact in knows:
        db.remove_fact(fact)
    after_remove = digest(db.standard_closure())
    for fact in knows:
        db.add_fact(Fact(*fact))
    after_add = digest(db.standard_closure())
    print(json.dumps({"workload": workload, "hash": hashed,
                      "interned": interned, "after_remove": after_remove,
                      "after_readd": after_add}))
