"""Smoke test of the macro benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/macro -q

Runs ``run.py --quick`` — all four workloads, traced and untraced, on a
200-employee world with a handful of sessions — and checks the output
contract, then checks that the failure path leaves nothing behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _children_alive() -> list:
    alive = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"benchmarks/macro/child.py" in command:
                alive.append(entry.name)
    return alive


def _leftovers() -> dict:
    return {
        "shm": [n for n in os.listdir("/dev/shm")
                if n.startswith("repro-gen-")],
        "work": (HERE / ".work").exists(),
        "children": _children_alive(),
    }


NOTHING = {"shm": [], "work": False, "children": []}


def test_quick_run_prints_every_declared_metric():
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed <= 20.0, f"--quick took {elapsed:.1f}s"

    # One block per workload and mode; every declared name with its unit.
    blocks = re.split(r"^== ", done.stdout, flags=re.MULTILINE)[1:]
    assert len(blocks) == 2 * len(catalog["workloads"])
    for block in blocks:
        section = "per_layer" if "per-layer" in block.splitlines()[0] \
            else "end_to_end"
        for spec in catalog[section]:
            assert NAME.match(spec["name"]), spec["name"]
            line = re.search(
                rf"^\s+{re.escape(spec['name'])}\s+\S+ "
                rf"{re.escape(spec['unit'])}(\s|$)",
                block, flags=re.MULTILINE)
            assert line, f"{spec['name']} [{spec['unit']}] missing in" \
                f" {block.splitlines()[0]}"
        assert "NOT MEASURED" not in block
        assert " failed=0 " in block
    for workload in catalog["workloads"]:
        assert sum(b.startswith(workload["name"] + " ")
                   for b in blocks) == 2

    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, entry in result["metrics"].items():
        assert NAME.match(name)
        assert set(entry) == {"value", "unit"}
    assert _leftovers() == NOTHING


def test_killed_pool_server_leaves_nothing_behind():
    """What the harness does on the way out of a failed run: SIGKILL a
    server that has a replica worker and shared-memory generations."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import wire
    from world import build_world, write_directory

    directory = HERE / ".work" / "smoke" / "db"
    directory.mkdir(parents=True)
    try:
        world = build_world(1, "write-mix", quick=True)
        write_directory(world, directory, "write-mix")
        server = wire.Server("write-mix", directory)
        assert server.worker_pids()
        assert any(n.startswith(f"repro-gen-{server.process.pid}-")
                   for n in os.listdir("/dev/shm"))
        server.kill()
    finally:
        import shutil

        shutil.rmtree(HERE / ".work")
    deadline = time.monotonic() + 5.0
    while _children_alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _leftovers() == NOTHING
