"""``tools/bench_pairs.py``: the paired-run verdict.

A gain is claimed when the change is better in at least 9 of 10
alternating pairs (ties count for neither side) and the medians are
apart by more than the parent's inter-quartile range; every other
metric is judged against its ``BENCHMARK.json`` bound.
"""

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import parse_seeds, verdict  # noqa: E402

PARENT = [0.74, 0.76, 0.75, 0.77, 0.76, 0.78, 0.75, 0.76, 0.77, 0.74]


class TestVerdict:
    def test_better_in_every_pair_by_more_than_the_iqr_holds(self):
        judged = verdict(PARENT, [v - 0.09 for v in PARENT])
        assert judged.wins == 10
        assert judged.claim_holds
        assert judged.shift == pytest.approx(-0.09 / 0.76, rel=1e-6)

    def test_eight_of_ten_is_not_enough(self):
        change = [v - 0.09 for v in PARENT]
        change[0] = change[1] = 0.80
        judged = verdict(PARENT, change)
        assert judged.wins == 8
        assert not judged.claim_holds

    def test_nine_of_ten_is(self):
        change = [v - 0.09 for v in PARENT]
        change[3] = 0.80
        judged = verdict(PARENT, change)
        assert judged.wins == 9
        assert judged.claim_holds

    def test_winning_every_pair_inside_the_iqr_does_not_hold(self):
        judged = verdict(PARENT, [v - 0.005 for v in PARENT])
        assert judged.wins == 10
        assert judged.improved < judged.parent.iqr
        assert not judged.claim_holds

    def test_ties_count_for_neither_side(self):
        judged = verdict(PARENT, list(PARENT))
        assert judged.wins == 0
        assert not judged.claim_holds
        assert judged.within_bound

    def test_higher_is_better(self):
        parent = [1000.0 + 10 * i for i in range(10)]
        judged = verdict(parent, [v * 1.2 for v in parent], better="higher")
        assert judged.wins == 10 and judged.claim_holds
        judged = verdict(parent, [v * 0.8 for v in parent],
                         better="higher", bound=0.25)
        assert judged.wins == 0 and not judged.claim_holds
        assert judged.within_bound

    def test_a_regression_past_its_bound(self):
        assert not verdict(PARENT, [v * 1.3 for v in PARENT],
                           bound=0.25).within_bound
        assert verdict(PARENT, [v * 1.2 for v in PARENT],
                       bound=0.25).within_bound

    def test_unpaired_values_are_refused(self):
        with pytest.raises(ValueError):
            verdict(PARENT, PARENT[:-1])
        with pytest.raises(ValueError):
            verdict([], [])


def test_parse_seeds():
    assert parse_seeds("1-10") == list(range(1, 11))
    assert parse_seeds("11,12,13") == [11, 12, 13]
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]


def _record(side, seed, setup_s, workload="browse-cold"):
    return {"side": side, "workload": workload, "seed": seed,
            "ran": "first", "result": {
                "correct": True, "attempted": 10, "failed": 0,
                "metrics": {"setup_s": {"value": setup_s, "unit": "s"}}}}


def test_report_judges_a_claim_over_the_logged_pairs():
    records = []
    for seed, value in enumerate(PARENT, start=1):
        records += [_record("parent", seed, value),
                    _record("change", seed, value - 0.09)]
    records.append(_record("parent", 99, 0.1))      # no change side
    catalog = [{"name": "setup_s", "unit": "s", "better": "lower",
                "bound": 0.25}]
    out = io.StringIO()
    assert bench_pairs.report(records, catalog, ["setup_s"], out=out)
    text = out.getvalue()
    assert "browse-cold: 10 alternating pairs" in text
    assert "better in 10 of 10 pairs" in text and "HOLDS" in text
    slower = [_record("parent", seed, value) for seed, value
              in enumerate(PARENT, start=1)] \
        + [_record("change", seed, 0.80) for seed in range(1, 11)]
    out = io.StringIO()
    assert not bench_pairs.report(slower, catalog, ["setup_s"], out=out)
    assert "DOES NOT HOLD" in out.getvalue()
    assert not bench_pairs.report(records, catalog, ["query_p50_us"],
                                  out=io.StringIO())


def test_pairs_alternate_which_side_runs_first(monkeypatch, tmp_path):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        return _record(tree.name, seed, 1.0)["result"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    log = io.StringIO()
    records = bench_pairs.run_pairs(tmp_path / "parent", tmp_path / "change",
                                    "browse-cold", [1, 2, 3], 10.0, log)
    assert calls == [("parent", 1), ("change", 1), ("change", 2),
                     ("parent", 2), ("parent", 3), ("change", 3)]
    assert [r["ran"] for r in records] == ["first", "second"] * 3
    assert len(log.getvalue().splitlines()) == 6


@pytest.mark.parametrize("pr", ["pr23", "pr25", "pr26", "pr28"])
def test_summarize_reads_the_committed_pairs_logs(pr, capsys):
    """The logs the deleted per-PR ``pairs.py`` copies wrote are read
    whole by the one command: every workload in a log is reported."""
    log = ROOT / "docs" / "measurements" / pr / "runs.jsonl"
    workloads = {json.loads(line)["workload"] for line
                 in log.read_text(encoding="utf-8").splitlines()
                 if line.strip()}
    assert len(workloads) == 4
    assert bench_pairs.main(["--summarize", str(log)]) == 0
    out = capsys.readouterr().out
    for workload in workloads:
        assert f"## {workload}: " in out, workload
