"""What the result LRU and its menu entries hit, at the parent commit.

    python lru_hits.py PARENT_TREE WORKLOAD [SEED]

``PARENT_TREE`` is a checkout of PR 22 (``fbc8047``), the last tree
that has the LRU.  Like ``../pr22/layers.py`` this serves one server
incarnation's share of a ``--seconds 10`` plan from the tree's own
child process, pinned like the benchmark, and reads counters the
program already keeps before and after the window — but hits and
misses *apart*:

* ``result_lru``: ``Database.stats()["result_cache"]`` hits / lookups,
  primary and replica summed (query answers, verdicts, navigations and
  probe menus share that LRU);
* ``menus``: ``PROBE_COUNTERS`` menu hits / lookups, the part of the
  LRU's traffic that is probe menus (the child's own process);
* ``answers``: the net layer's memo in front of both.

On this PR's tree the same script prints zeros for the first two: the
keys are literal zeros kept for ``benchmarks/macro/ladder.py``.
Nothing is timed and no answer is checked (``run.py`` does that).
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


def counts(stats: dict) -> dict:
    lru = {"hits": 0, "misses": 0}
    for db in ("primary_db", "replica_db"):
        if db in stats:
            for key in lru:
                lru[key] += stats[db]["result_cache"][key]
    probes = stats["probe_counters"]
    return {"result_lru": lru,
            "menus": {"hits": probes["menu_hits"],
                      "misses": probes["menu_misses"]}}


def main() -> None:
    wire.pin_to_one_cpu()
    world = build_world(seed, workload)
    plan = build_plan(world, workload, sessions_per_round(workload, 10.0),
                      ROUNDS // SERVERS_PER_RUN, warmup=-1)
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
            before = counts(server.stats())
            memo_before = client.stats()["answers"]
            requests = 0
            for sessions in plan.rounds:
                for session in sessions:
                    answers, _ = wire.run_session(client, session)
                    requests += len(answers)
            after = counts(server.stats())
            memo_after = client.stats()["answers"]
            client.close()
            server.stop()
        except BaseException:
            server.kill()
            raise
    report = {"tree": tree.name, "workload": workload, "seed": seed,
              "requests": requests}
    for name in ("result_lru", "menus"):
        hits = after[name]["hits"] - before[name]["hits"]
        misses = after[name]["misses"] - before[name]["misses"]
        report[name] = {"hits": hits, "lookups": hits + misses}
    hits = memo_after["hits"] - memo_before["hits"]
    misses = memo_after["misses"] - memo_before["misses"]
    report["answers"] = {"hits": hits, "lookups": hits + misses}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
