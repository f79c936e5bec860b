"""The spine's registry half: counters, gauge aggregates, histograms,
snapshot algebra and Prometheus exposition (spans, enablement and the
layer instrumentation are in ``test_obs.py``)."""

from __future__ import annotations

import threading

import pytest

from repro.obs.telemetry import (
    DEFAULT_BUCKETS,
    NULL_TELEMETRY,
    GaugeAggregate,
    Histogram,
    Telemetry,
    merge_snapshots,
    parse_prometheus,
    to_prometheus,
)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestGaugeAggregate:
    def test_tracks_min_max_sum_last(self):
        gauge = GaugeAggregate()
        for value in (3.0, 1.0, 2.0):
            gauge.set(value)
        stats = gauge.as_dict()
        assert stats["last"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["sum"] == 6.0
        assert stats["count"] == 3
        assert gauge.mean == pytest.approx(2.0)

    def test_empty_gauge_is_zeroed(self):
        stats = GaugeAggregate().as_dict()
        assert stats["count"] == 0
        assert stats["sum"] == 0.0


class TestHistogram:
    def test_percentiles_without_samples(self):
        histogram = Histogram()
        for microseconds in range(1, 101):
            histogram.observe(microseconds * 1e-4)  # 0.1ms .. 10ms
        # No raw samples retained — only bucket counts.
        assert histogram.count == 100
        assert histogram.percentile(0.50) <= histogram.percentile(0.99)
        stats = histogram.as_dict()
        assert stats["count"] == 100
        assert stats["p50"] <= stats["p95"] <= stats["p99"]
        assert stats["min"] == pytest.approx(1e-4)
        assert stats["max"] == pytest.approx(1e-2)

    def test_overflow_bucket_reports_max(self):
        histogram = Histogram(bounds=(0.001, 0.01))
        histogram.observe(5.0)
        assert histogram.percentile(0.99) == pytest.approx(5.0)

    def test_bucket_count_matches_bounds(self):
        histogram = Histogram()
        # One overflow bucket beyond the last bound.
        assert len(histogram.counts) == len(DEFAULT_BUCKETS) + 1


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_gauges_histograms(self):
        registry = Telemetry()
        registry.count("requests")
        registry.count("requests", 2)
        registry.gauge("depth", 4.0)
        registry.observe("latency", 0.002)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == 3
        assert snapshot["gauges"]["depth"]["last"] == 4.0
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert registry.counters == {"requests": 3}

    def test_gauges_fold_extremes(self):
        registry = Telemetry()
        for value in (5.0, 1.0, 3.0):
            registry.gauge("lag", value)
        assert registry.gauges["lag"].as_dict() == {
            "last": 3.0, "min": 1.0, "max": 5.0, "sum": 9.0, "count": 3}

    def test_thread_safety(self):
        registry = Telemetry()

        def hammer():
            for _ in range(1000):
                registry.count("n")
                registry.observe("h", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["n"] == 4000
        assert snapshot["histograms"]["h"]["count"] == 4000


def test_null_telemetry_snapshot_is_empty():
    NULL_TELEMETRY.count("x")
    NULL_TELEMETRY.gauge("y", 1.0)
    NULL_TELEMETRY.observe("z", 0.1)
    assert NULL_TELEMETRY.snapshot() == {"counters": {}, "gauges": {},
                                         "histograms": {}}


# ----------------------------------------------------------------------
# Snapshot algebra
# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def _snapshot(self, requests: int, latency: float) -> dict:
        registry = Telemetry()
        registry.count("requests", requests)
        registry.gauge("depth", latency * 100)
        registry.observe("latency", latency)
        return registry.snapshot()

    def test_counters_add(self):
        merged = merge_snapshots([self._snapshot(2, 0.001),
                                  self._snapshot(3, 0.002)])
        assert merged["counters"]["requests"] == 5

    def test_gauges_combine(self):
        merged = merge_snapshots([self._snapshot(1, 0.001),
                                  self._snapshot(1, 0.005)])
        gauge = merged["gauges"]["depth"]
        assert gauge["min"] == pytest.approx(0.1)
        assert gauge["max"] == pytest.approx(0.5)
        assert gauge["count"] == 2

    def test_histograms_add_and_rederive(self):
        merged = merge_snapshots([self._snapshot(1, 0.001),
                                  self._snapshot(1, 0.002)])
        histogram = merged["histograms"]["latency"]
        assert histogram["count"] == 2
        assert histogram["min"] == pytest.approx(0.001)
        assert histogram["max"] == pytest.approx(0.002)

    def test_disjoint_series_union(self):
        left = Telemetry()
        left.count("only.left")
        right = Telemetry()
        right.count("only.right")
        merged = merge_snapshots([left.snapshot(), right.snapshot()])
        assert merged["counters"] == {"only.left": 1, "only.right": 1}

    def test_empty_input(self):
        merged = merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_round_trip(self):
        registry = Telemetry()
        registry.count("serve.requests", 7)
        registry.gauge("serve.queue_depth", 3.0)
        registry.observe("serve.request_seconds.query", 0.002)
        text = to_prometheus(registry.snapshot())
        series = parse_prometheus(text)
        assert series["repro_serve_requests_total"] == 7
        assert series["repro_serve_queue_depth"] == 3.0
        assert series[
            "repro_serve_request_seconds_query_count"] == 1
        # Cumulative bucket series present with an +Inf terminator.
        assert any('le="+Inf"' in name for name in series)

    def test_type_headers(self):
        registry = Telemetry()
        registry.count("c")
        registry.observe("h", 0.1)
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_c_total counter" in text
        assert "# TYPE repro_h histogram" in text

    def test_name_sanitization(self):
        registry = Telemetry()
        registry.count("serve.requests.try-hard")
        text = to_prometheus(registry.snapshot())
        assert "repro_serve_requests_try_hard_total" in text
