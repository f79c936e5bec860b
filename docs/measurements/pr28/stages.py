"""Where one cold macro join spends its time, in process.

    python stages.py TREE [SEED] [overlay]

``TREE`` is a checkout of this repository (the parent commit, or this
PR).  Builds the macro benchmark's browse-cold world with the tree's
own ``benchmarks/macro/world.py``, loads it into a plain ``Database``,
compacts it (closure first, so the integer-domain executor runs) and
times, pinned to one CPU, the stages of the session's join

    (EMPn, WORKS-FOR, d) and (d, ∈, DEPARTMENT)
        and (x, WORKS-FOR, d) and (x, EARNS, s)

on 300 employees the process has never seen: ``parse`` (the text is
new to the parse memo), ``safety``, ``lower`` (``compile_query``),
``run`` (``_run_plan`` from the unit table) and ``project``.  Each
stage reports the p50 over the texts of its quietest of three passes
(every pass uses its own 300 employees).

Two more passes, each over its own employees and not part of the stage
numbers, wrap functions of the tree and so only say where inside a
stage the time goes: ``atoms`` — ``_exec_atom`` per pipeline position
and ``lookup_many_ids`` per call of the fourth atom (100 keys) — and
``calls`` — how many ``estimate_cost`` / ``view.count_estimate`` calls
one evaluation (lowering and run) made.

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
from types import SimpleNamespace

TEXTS = 300
PASSES = 3
STAGES = ("parse", "safety", "lower", "run", "project")


def load(tree: Path, seed: int, overlay: bool) -> SimpleNamespace:
    """Import ``tree``'s ``repro`` and macro world, pin to one CPU,
    build the compacted browse-cold world, and return it with
    ``join(employee)``: the five stage times of that employee's join
    text (new to the parse memo), and its row count."""
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(tree / "benchmarks" / "macro"))
    import wire
    from world import CHAINS, build_world

    from repro.core.facts import Fact
    from repro.db import Database
    from repro.query import compile as compile_mod
    from repro.query import exec as exec_mod
    from repro.query import planner as planner_mod
    from repro.query.evaluate import check_safety
    from repro.query.parser import parse_query

    wire.pin_to_one_cpu()
    world = build_world(seed, "browse-cold")
    db = Database(world.facts, with_axioms=False)
    db.view()
    db.compact_store()
    if overlay:
        for employee in world.order[-8:]:
            db.add(employee, "KNOWS", world.extra[employee])
            db.remove_fact(Fact(employee, "KNOWS", world.skill[employee]))
    view = db.view()
    clock = time.perf_counter

    def join(employee: str) -> tuple:
        text = (f"({employee}, WORKS-FOR, d) and (d, ∈, DEPARTMENT)"
                f" and (x, WORKS-FOR, d) and (x, EARNS, s)")
        t0 = clock()
        query = parse_query(text)
        t1 = clock()
        check_safety(query.formula)
        t2 = clock()
        plan = compile_mod.compile_query(query, view)
        t3 = clock()
        table = exec_mod._run_plan(plan, view, exec_mod.unit_table(),
                                   exec_mod._id_exec(view), False)[0]
        t4 = clock()
        rows = exec_mod.CompiledEvaluator._project(query, table)
        t5 = clock()
        return (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4), len(rows)

    return SimpleNamespace(
        world=world, db=db, view=view, join=join, chains=CHAINS,
        compile_mod=compile_mod, exec_mod=exec_mod,
        planner_mod=planner_mod)


def p50_us(samples) -> float:
    return round(1e6 * statistics.median(samples), 1)


def main() -> None:
    tree = Path(sys.argv[1]).resolve()
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    overlay = len(sys.argv) > 3 and sys.argv[3] == "overlay"
    loaded = load(tree, seed, overlay)
    view, join, order = loaded.view, loaded.join, loaded.world.order
    compile_mod, exec_mod = loaded.compile_mod, loaded.exec_mod
    planner_mod = loaded.planner_mod
    report = {"tree": tree.name, "seed": seed, "overlay": overlay,
              "texts": TEXTS}
    # Warm the code paths on employees no pass uses.
    for employee in order[-40:-8]:
        join(employee)
    gc.collect()

    passes = []
    for number in range(PASSES):
        results = [join(e)
                   for e in order[number * TEXTS:(number + 1) * TEXTS]]
        assert all(rows == 100 for _times, rows in results)
        passes.append([p50_us([times[s] for times, _rows in results])
                       for s in range(len(STAGES))])
    for s, stage in enumerate(STAGES):
        report[f"{stage}_us"] = min(one[s] for one in passes)
    report["total_us"] = round(
        sum(report[f"{stage}_us"] for stage in STAGES), 1)

    # -- atoms: where inside ``run`` ----------------------------------
    employees = order[PASSES * TEXTS:(PASSES + 1) * TEXTS]
    atom_times = []          # one list of four per query
    lookup_times = []        # lookup_many_ids calls of ≥ 50 keys
    inner_atom = exec_mod._exec_atom
    store = view.store
    inner_lookup = type(store).lookup_many_ids

    def timed_atom(node, table, ctx):
        started = time.perf_counter()
        out = inner_atom(node, table, ctx)
        atom_times[-1].append(time.perf_counter() - started)
        return out

    def timed_lookup(self, spec, keys, *args, **kwargs):
        started = time.perf_counter()
        out = inner_lookup(self, spec, keys, *args, **kwargs)
        if len(keys) >= 50:
            lookup_times.append(time.perf_counter() - started)
        return out

    type(store).lookup_many_ids = timed_lookup
    for employee in employees:     # lookup only: the atom wrapper
        join(employee)             # would hold it
    type(store).lookup_many_ids = inner_lookup
    exec_mod._exec_atom = timed_atom
    for employee in employees:
        atom_times.append([])
        join(employee)
    exec_mod._exec_atom = inner_atom
    for position in range(4):
        report[f"atom{position + 1}_us"] = p50_us(
            [times[position] for times in atom_times])
    report["lookup_many_ids_100_keys_us"] = p50_us(lookup_times)

    # -- calls: what one evaluation (lowering and run) asks ------------
    counts = {"estimate_cost": 0, "count_estimate": 0}
    inner_estimate = planner_mod.estimate_cost
    inner_count = type(view).count_estimate

    def counted_estimate(*args, **kwargs):
        counts["estimate_cost"] += 1
        return inner_estimate(*args, **kwargs)

    def counted_count(self, *args, **kwargs):
        counts["count_estimate"] += 1
        return inner_count(self, *args, **kwargs)

    for module in (planner_mod, compile_mod, exec_mod):
        if hasattr(module, "estimate_cost"):
            module.estimate_cost = counted_estimate
    type(view).count_estimate = counted_count
    join(order[(PASSES + 1) * TEXTS])
    type(view).count_estimate = inner_count
    for module in (planner_mod, compile_mod, exec_mod):
        if hasattr(module, "estimate_cost"):
            module.estimate_cost = inner_estimate
    report["estimate_cost_calls"] = counts["estimate_cost"]
    report["count_estimate_calls"] = counts["count_estimate"]
    print(json.dumps(report))


if __name__ == "__main__":
    main()
