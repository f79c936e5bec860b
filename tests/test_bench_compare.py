"""``tools/bench_compare.py``: the CI throughput guard can fire.

A throughput regression is gated as a *slowdown* (``before/after − 1``,
unbounded), not as a percentage loss (which never exceeds 100 and made
``--fail-above 200`` unreachable).
"""

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_compare  # noqa: E402


def _document(tmp_path, name, ops_per_second):
    path = tmp_path / name
    path.write_text(json.dumps({
        "benchmark": "F13",
        "results": [{"mode": "compiled", "shape": "join",
                     "ops_per_second": ops_per_second, "p99_us": 100.0}],
    }), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("factor, status", [(4.0, 1), (1.5, 0)])
def test_fail_above_200_means_three_times_slower(tmp_path, factor, status):
    baseline = _document(tmp_path, "before.json", 1000.0)
    candidate = _document(tmp_path, "after.json", 1000.0 / factor)
    out = io.StringIO()
    assert bench_compare.compare(baseline, candidate, fail_above=200.0,
                                 out=out) == status
    text = out.getvalue()
    # The per-cell delta is still the plain relative change …
    assert f"ops_per_second {100.0 * (1 / factor - 1):+.1f}%" in text
    # … and the gate reads the slowdown.
    assert f"worst throughput slowdown {100.0 * (factor - 1):.1f}%" in text
    assert ("FAIL" in text) == bool(status)


def test_command_line_exit_status(tmp_path):
    baseline = _document(tmp_path, "before.json", 1000.0)
    slower = _document(tmp_path, "after.json", 250.0)
    assert bench_compare.main([baseline, slower, "--fail-above",
                               "200"]) == 1
    assert bench_compare.main([baseline, slower]) == 0
    # Faster is never a regression, however large the change.
    assert bench_compare.main([slower, baseline, "--fail-above", "0"]) == 0
