"""Which cache layers still see traffic once repeats stop at the door.

    python layers.py TREE WORKLOAD [SEED]

``TREE`` is a checkout of this repository (the change, or the parent
commit).  Builds the macro world and one server incarnation's share of
a ``--seconds 10`` plan with the tree's own ``benchmarks/macro``
modules, serves it from the tree's own child process (pinned like the
benchmark), and reports — from counters the program already keeps,
read before and after the window — how many lookups each layer
received during it:

* ``answers``: the net layer's memo (``stats`` verb; absent at the
  parent), with its end-of-window entries and bytes;
* ``result_lru``: ``Database.stats()["result_cache"]`` hits + misses
  (query results, navigations and probe menus share this LRU);
* ``menus``: ``PROBE_COUNTERS`` menu hits + misses, the part of the
  LRU's traffic that is probe menus;
* ``plan_cache``: ``Database.stats()["plan_cache"]`` hits + misses.

No answer is checked here (``run.py`` does that); nothing is timed.
"""

import json
import sys
import tempfile
from pathlib import Path

tree = Path(sys.argv[1]).resolve()
workload = sys.argv[2]
seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
sys.path.insert(0, str(tree / "src"))
sys.path.insert(0, str(tree / "benchmarks" / "macro"))

import wire  # noqa: E402
from world import (  # noqa: E402
    ROUNDS,
    build_plan,
    build_world,
    sessions_per_round,
    write_directory,
)

SERVERS_PER_RUN = 3     # as run.py: a third of the rounds per server


def lookups(stats: dict) -> dict:
    out = {}
    for db in ("primary_db", "replica_db"):
        if db not in stats:
            continue
        for cache, name in (("result_cache", "result_lru"),
                            ("plan_cache", "plan_cache")):
            block = stats[db][cache]
            out[name] = out.get(name, 0) + block["hits"] + block["misses"]
    counters = stats["probe_counters"]
    out["menus"] = counters["menu_hits"] + counters["menu_misses"]
    return out


def main() -> None:
    wire.pin_to_one_cpu()
    world = build_world(seed, workload)
    rounds = ROUNDS // SERVERS_PER_RUN
    plan = build_plan(world, workload, sessions_per_round(workload, 10.0),
                      rounds, warmup=-1)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "db"
        directory.mkdir()
        write_directory(world, directory, workload)
        server = wire.Server(workload, directory)
        try:
            client = wire.ServiceClient("127.0.0.1", server.port,
                                        timeout=wire.START_TIMEOUT)
            for session in plan.warmup:
                wire.run_session(client, session)
            before = lookups(server.stats())
            memo_before = client.stats().get("answers")
            requests = 0
            for sessions in plan.rounds:
                for session in sessions:
                    answers, _ = wire.run_session(client, session)
                    requests += len(answers)
            after = lookups(server.stats())
            memo_after = client.stats().get("answers")
            client.close()
            server.stop()
        except BaseException:
            server.kill()
            raise
    report = {"tree": tree.name, "workload": workload, "seed": seed,
              "rounds": rounds, "requests": requests}
    for name in ("result_lru", "menus", "plan_cache"):
        report[name] = after[name] - before[name]
    if memo_after is not None:
        hits = memo_after["hits"] - memo_before["hits"]
        misses = memo_after["misses"] - memo_before["misses"]
        report["answers"] = {
            "hits": hits, "misses": misses,
            "hit_rate_of_plain_reads": round(hits / max(hits + misses, 1), 4),
            "hit_rate_of_requests": round(hits / max(requests, 1), 4),
            "entries_at_end": memo_after["entries"],
            "bytes_at_end": memo_after["bytes"],
            "budget": memo_after["budget"]}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
