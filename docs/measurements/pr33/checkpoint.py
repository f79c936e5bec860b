"""Two trees, in process: what a checkpoint and a snapshot read cost.

    python checkpoint.py PARENT CHANGE [WORKLOAD] [ROUNDS]   # compare
    python checkpoint.py --worker TREE WORKLOAD SEED         # one side

Each worker imports its tree's ``repro`` and macro world, writes the
workload's durable directory for the seed (``world.write_directory``),
opens it as ``python -m repro.shell serve DIR`` does (``open_database``
then a durable ``DatabaseService``), and times, 15 times each, with
the medians printed as one JSON line:

* ``checkpoint_ms``: ``session.checkpoint(database=master)`` — the
  call the service writer makes for a ``checkpoint`` request;
* ``encode_ms``: ``SnapshotState.to_json`` of the same state;
* ``read_ms``: ``read_snapshot`` of the file just written;
* ``bytes``: the snapshot's size.

The comparison runs ROUNDS (default 4) rounds, seeds 1…ROUNDS, each
tree once per round in a fresh interpreter, the side that goes first
swapped every round, and prints every worker's line.
"""

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 15


def worker(tree: Path, workload: str, seed: int) -> None:
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(tree / "benchmarks" / "macro"))
    import world
    from repro.serve import DatabaseService
    from repro.storage.session import open_database
    from repro.storage.snapshot import SnapshotState, read_snapshot

    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "db"
        directory.mkdir()
        world.write_directory(world.build_world(seed, workload), directory,
                              workload)
        db, session = open_database(directory)
        service = DatabaseService(db, session=session)
        master = service._db  # noqa: SLF001 - the writer is idle
        series = {"checkpoint_ms": [], "encode_ms": [], "read_ms": []}
        try:
            for _ in range(REPEATS):
                started = time.perf_counter()
                session.checkpoint(database=master)
                series["checkpoint_ms"].append(time.perf_counter() - started)
                state = SnapshotState(
                    facts=list(master.facts),
                    rule_states=master.rules.snapshot_state(),
                    composition_limit=master.composition_limit)
                started = time.perf_counter()
                state.to_json()
                series["encode_ms"].append(time.perf_counter() - started)
                started = time.perf_counter()
                read_snapshot(session.snapshot_path)
                series["read_ms"].append(time.perf_counter() - started)
            size = session.snapshot_path.stat().st_size
        finally:
            service.close()
    row = {name: round(1e3 * statistics.median(values), 3)
           for name, values in series.items()}
    print(json.dumps({"tree": tree.name, "workload": workload, "seed": seed,
                      "facts": len(master.facts), "bytes": size, **row}))


def compare(parent: Path, change: Path, workload: str, rounds: int) -> None:
    for seed in range(1, rounds + 1):
        sides = (parent, change) if seed % 2 else (change, parent)
        for tree in sides:
            subprocess.run([sys.executable, __file__, "--worker", str(tree),
                            workload, str(seed)], check=True)


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        worker(Path(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
    else:
        compare(Path(sys.argv[1]), Path(sys.argv[2]),
                sys.argv[3] if len(sys.argv) > 3 else "ingest-recover",
                int(sys.argv[4]) if len(sys.argv) > 4 else 4)
