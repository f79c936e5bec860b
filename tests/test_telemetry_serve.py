"""The serving telemetry surface: the ``metrics`` and ``slowlog``
verbs, pool-wide snapshot merging, the slow-query log's plan capture,
the monitor dashboard, the remote shell commands, and — critically —
neutrality: telemetry off must not change any answer."""

from __future__ import annotations

import contextlib
import sys
import threading

import pytest

from repro.db import Database
from repro.obs import telemetry as obs_telemetry
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.obs.monitor import dashboard_rows, render_dashboard
from repro.obs.slowlog import SlowQueryLog, build_record
from repro.serve import DatabaseService, ReplicaPool
from repro.serve.net import RemoteShell, ServiceClient, ServiceServer

from .conftest import primary_busy


def _build_database() -> Database:
    db = Database()
    for index in range(4):
        db.add(f"P{index}", "WORKS-IN", f"D{index % 2}")
        db.add(f"D{index % 2}", "PART-OF", "ORG")
    return db


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_ring_buffer_bounds_retention(self):
        log = SlowQueryLog(size=3)
        for index in range(5):
            log.add(build_record("query", 0.2, 0.1, text=f"q{index}"))
        assert log.total == 5
        assert len(log) == 3
        texts = [record["text"] for record in log.records()]
        assert texts == ["q2", "q3", "q4"]
        assert log.snapshot(limit=1)["records"][0]["text"] == "q4"

    def test_service_captures_slow_reads_with_plans(self):
        service = DatabaseService(_build_database(),
                                  slow_query_seconds=0.0)
        try:
            service.query("(x, WORKS-IN, y)")
        finally:
            service.close()
        records = service.slow_log.records()
        assert records
        record = records[-1]
        assert record["op"] == "query"
        assert record["source"] == "primary"
        assert record["seconds"] >= 0.0
        # Satellite: the compiled plan's est-vs-actual rows ride along.
        assert record["plan"] is not None
        assert record["plan"]["replans"] >= 0
        operators = record["plan"]["operators"]
        assert operators
        assert all("est" in stats and "out_rows" in stats
                   for stats in operators)

    def test_probe_autopsy_on_primary_and_replica(self):
        service = DatabaseService(_build_database(),
                                  slow_query_seconds=0.0)
        pool = ReplicaPool(service, workers=1)
        try:
            service.probe("(P0, WORKS-IN, ORG)")
            with primary_busy(pool):
                pool.probe("(P0, WORKS-IN, ORG)")
            probes = {record["source"]: record["probe"]
                      for record in service.slow_log.records()
                      if record["op"] == "probe"}
            # A non-probe request never inherits the previous autopsy.
            service.query("(x, WORKS-IN, y)")
            assert "probe" not in service.slow_log.records()[-1]
        finally:
            pool.close()
            service.close()
        assert set(probes) == {"primary", "replica"}
        for autopsy in probes.values():
            assert autopsy["waves"] >= 1
            assert autopsy["attempted"] >= autopsy["successes"] >= 1
            assert 1 <= autopsy["joins"] <= autopsy["attempted"]

    def test_service_holds_the_spine_only_while_open(self):
        assert not obs_telemetry.ENABLED
        service = DatabaseService(_build_database(),
                                  slow_query_seconds=60.0)
        assert obs_telemetry.ENABLED
        service.close()
        assert not obs_telemetry.ENABLED
        # A spine that was already on stays on.
        with use_telemetry(Telemetry()):
            DatabaseService(_build_database(),
                            slow_query_seconds=60.0).close()
            assert obs_telemetry.ENABLED
        # No threshold, no hold.
        service = DatabaseService(_build_database())
        assert not obs_telemetry.ENABLED
        service.close()

    def test_threshold_filters(self):
        service = DatabaseService(_build_database(),
                                  slow_query_seconds=60.0)
        try:
            service.query("(x, WORKS-IN, y)")
        finally:
            service.close()
        assert service.slow_log.total == 0

    def test_replica_slow_records_reach_primary(self):
        service = DatabaseService(_build_database(),
                                  slow_query_seconds=0.0)
        pool = ReplicaPool(service, workers=1)
        try:
            with primary_busy(pool):
                pool.query("(x, WORKS-IN, y)")
            sources = {record["source"]
                       for record in service.slow_log.records()}
        finally:
            pool.close()
            service.close()
        assert "replica" in sources


# ----------------------------------------------------------------------
# Metrics through the pool and the wire
# ----------------------------------------------------------------------
@pytest.fixture()
def metered_server():
    """Metrics-enabled TCP server over a 2-worker pool."""
    registry = obs_telemetry.enable_telemetry(fresh=True)
    service = DatabaseService(_build_database(),
                              slow_query_seconds=0.0)
    pool = ReplicaPool(service, workers=2)
    server = ServiceServer(service, port=0, pool=pool)
    server.start()
    try:
        yield server.address, pool, registry
    finally:
        server.close()
        pool.close()
        service.close()
        obs_telemetry.disable_telemetry()


class TestMetricsSurface:
    def test_metrics_verb_merges_worker_snapshots(self, metered_server):
        (host, port), pool, _registry = metered_server
        with ServiceClient(host, port) as client:
            with primary_busy(pool):
                for _ in range(3):
                    client.query("(x, WORKS-IN, y)")
            client.query("(x, WORKS-IN, y)")
            snapshot = client.metrics()
        counters = snapshot["counters"]
        assert counters.get("serve.pool.primary_reads", 0) == 1
        assert counters["serve.requests"] >= 3
        assert counters["serve.requests.query"] >= 3
        # Workers count their reads under the primary's names, and
        # their snapshots were merged in: the three they answered and
        # the primary's one.
        assert counters["serve.requests.query"] == 4
        # Nothing below the wire remembers an answer and the net memo
        # never keeps a worker's: all four reads ran their plan.
        assert counters.get("exec.plans", 0) == 4
        latency = snapshot["histograms"]["serve.request_seconds.query"]
        assert latency["count"] >= 3

    def test_prometheus_over_the_wire(self, metered_server):
        (host, port), _pool, _registry = metered_server
        with ServiceClient(host, port) as client:
            client.query("(x, WORKS-IN, y)")
            text = client.metrics(format="prometheus")
        series = obs_telemetry.parse_prometheus(text)
        assert series.get("repro_serve_requests_total", 0) >= 1

    def test_slowlog_verb(self, metered_server):
        (host, port), _pool, _registry = metered_server
        with ServiceClient(host, port) as client:
            client.query("(x, WORKS-IN, y)")
            log = client.slowlog(limit=5)
        assert log["total"] >= 1
        assert log["records"][-1]["op"] == "query"

    def test_pool_worker_metrics_and_stats(self, metered_server):
        (_host, _port), pool, _registry = metered_server
        pool.query("(x, PART-OF, y)")
        pool.metrics(timeout=10.0)
        workers = pool.worker_metrics()
        assert len(workers) == 2
        assert all(worker["metrics"] is not None for worker in workers)
        assert pool.stats()["worker_metrics_received"] == 2
        # Every call asks the workers again.
        pool.metrics(timeout=10.0)
        assert pool.stats()["worker_metrics_received"] == 4


class TestRemoteShellTelemetry:
    def test_metrics_slowlog_and_trace_commands(self, metered_server):
        (host, port), _pool, _registry = metered_server
        with ServiceClient(host, port) as client:
            shell = RemoteShell(client)
            shell.execute("query (x, WORKS-IN, y)")
            metrics_text = shell.execute("metrics")
            assert "serve.requests" in metrics_text
            prometheus_text = shell.execute("metrics prometheus")
            assert "repro_serve_requests_total" in prometheus_text
            slowlog_text = shell.execute("slowlog 5")
            assert "slow queries:" in slowlog_text
            assert shell.execute("trace bogus").startswith("usage:")
            assert "no traced call yet" in shell.execute("trace last")
            assert "on" in shell.execute("trace on")
            shell.execute("query (x, WORKS-IN, y)")
            assert client.last_trace
            rendered = shell.execute("trace last")
            assert "client.request" in rendered
            assert "net.dispatch" in rendered
            assert "off" in shell.execute("trace off")


# ----------------------------------------------------------------------
# Monitor dashboard
# ----------------------------------------------------------------------
class TestMonitorDashboard:
    def _snapshot(self, requests: int) -> dict:
        registry = Telemetry()
        registry.count("serve.requests.query", requests)
        registry.count("serve.net.answer_hits", requests * 4)
        registry.count("serve.net.answer_misses", requests)
        registry.gauge("serve.net.answer_bytes", 2048)
        registry.gauge("serve.queue_depth", 2.0)
        registry.gauge("serve.publish_pause_seconds", 0.004)
        registry.observe("serve.publish_pause", 0.004)
        registry.count("serve.folds", 2)
        registry.observe("serve.fold_seconds", 0.026)
        registry.observe("serve.pool.lag_seconds", 0.001)
        for _ in range(requests):
            registry.observe("serve.request_seconds.query", 0.002)
        return registry.snapshot()

    def test_rows_compute_rates_from_deltas(self):
        rows = dashboard_rows(self._snapshot(30), self._snapshot(10),
                              interval=2.0)
        (row,) = rows
        assert row["class"] == "query"
        assert row["rate"] == pytest.approx(10.0)  # (30-10)/2s
        assert row["total"] == 30
        assert row["p99"] is not None

    def test_render_covers_the_headline_panels(self):
        text = render_dashboard(self._snapshot(20), self._snapshot(10),
                                interval=1.0, title="test dash")
        assert "test dash" in text
        assert "query" in text
        assert ("answer memo: 40 req/s repeated, 80.0% of plain reads"
                " (40 hits / 10 misses), 2,048 bytes kept") in text
        assert "replica lag" in text
        assert "publish pause" in text
        assert "overlay folds: 2 worst" in text
        assert "write queue depth: 2" in text

    def test_first_frame_without_previous(self):
        text = render_dashboard(self._snapshot(5))
        assert "throughput" in text

    def test_live_snapshot_renders(self, metered_server):
        (host, port), _pool, _registry = metered_server
        with ServiceClient(host, port) as client:
            client.query("(x, WORKS-IN, y)")
            snapshot = client.metrics()
        text = render_dashboard(snapshot)
        assert "query" in text


# ----------------------------------------------------------------------
# Neutrality: telemetry off changes nothing
# ----------------------------------------------------------------------
class TestTelemetryNeutrality:
    def _answers(self, client: ServiceClient) -> dict:
        return {
            "query": sorted(map(tuple, client.query("(x, WORKS-IN, y)"))),
            "ask": client.ask("(P0, WORKS-IN, D0)"),
            "try": sorted(map(tuple, client.try_("P1"))),
            "probe": sorted(map(tuple,
                                client.probe("(x, PART-OF, ORG)")["value"])),
        }

    def _run_stack(self, telemetry: bool) -> dict:
        assert not obs_telemetry.ENABLED
        with (use_telemetry(Telemetry()) if telemetry
              else contextlib.nullcontext()):
            service = DatabaseService(_build_database())
            pool = ReplicaPool(service, workers=2)
            server = ServiceServer(service, port=0, pool=pool)
            server.start()
            host, port = server.address
            try:
                with ServiceClient(host, port, trace=telemetry) as client:
                    return self._answers(client)
            finally:
                server.close()
                pool.close()
                service.close()

    def test_answers_identical_with_and_without_telemetry(self):
        assert self._run_stack(False) == self._run_stack(True)

    def test_disabled_collects_nothing_and_ships_no_trace(self):
        service = DatabaseService(_build_database())
        pool = ReplicaPool(service, workers=1)
        server = ServiceServer(service, port=0, pool=pool)
        server.start()
        host, port = server.address
        try:
            with ServiceClient(host, port) as client:
                client.query("(x, WORKS-IN, y)")
                response = client._roundtrip({"op": "ask",
                                              "query": "(P0, WORKS-IN, D0)"})
        finally:
            server.close()
            pool.close()
            service.close()
        # No trace context requested → no trace shipped back.
        assert "trace" not in response
        # Nothing leaked into the (disabled) global spine.
        assert not obs_telemetry.ENABLED


# ----------------------------------------------------------------------
# The spine under threads, and one report per event
# ----------------------------------------------------------------------
class TestSpineUnderThreads:
    READERS, READS, WRITES = 4, 120, 30

    def test_counters_exact_and_span_trees_stay_on_their_thread(self):
        """Reader threads open ``query.evaluate``/``browse.probe`` spans
        while the writer thread opens ``serve.batch``: no update may be
        lost and no span may nest under another thread's span."""
        failures = []

        def guarded(body):
            def run():
                try:
                    body()
                except Exception as error:   # surfaced by the assert below
                    failures.append(error)
            return threading.Thread(target=run)

        def read():
            for n in range(self.READS):
                if n % 2:
                    service.query(f"(x, WORKS-IN, D{n % 4 // 2})")
                else:
                    service.probe("(P0, WORKS-IN, ORG)")

        def write():
            for n in range(self.WRITES):
                service.add(f"N{n}", "WORKS-IN", "D0")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_telemetry(Telemetry()) as telemetry:
                service = DatabaseService(_build_database(), batch_window=0)
                threads = [guarded(read) for _ in range(self.READERS)]
                threads.append(guarded(write))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                service.close()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert not any(thread.is_alive() for thread in threads)

        reads = self.READERS * self.READS
        snapshot = telemetry.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.requests"] == reads
        assert counters["serve.requests.query"] == reads // 2
        assert counters["serve.requests.probe"] == reads // 2
        assert counters["browse.probes"] == reads // 2
        assert counters["serve.ops_applied"] == self.WRITES
        # Nothing remembers an answer in process: every query ran its
        # plan, every probe its own and one join per wave skeleton —
        # fewer than the candidates those joins answered.
        assert counters["browse.probe.retractions"] >= reads // 2
        assert reads // 2 <= counters["browse.probe.joins"] \
            < counters["browse.probe.retractions"]
        assert counters["exec.plans"] \
            == reads + counters["browse.probe.joins"]
        histograms = snapshot["histograms"]
        assert histograms["serve.request_seconds.query"]["count"] \
            + histograms["serve.request_seconds.probe"]["count"] == reads
        assert snapshot["gauges"]["serve.request_seconds"]["count"] == reads
        assert snapshot["gauges"]["serve.batch_size"]["sum"] == self.WRITES

        spans = telemetry.spans()
        assert len(telemetry.spans("browse.probe")) == reads // 2
        assert len(telemetry.spans("serve.batch")) \
            == counters["serve.batches"]
        # Nothing left open on any stack, and every tree is one thread's.
        assert all(span.finished for span in spans)
        assert all(child.thread == span.thread
                   for span in spans for child in span.children)
        assert all(span.parent is None
                   for span in telemetry.spans("serve.batch"))
        assert all(span.parent is None
                   for span in telemetry.spans("browse.probe"))


class TestOneEventOneReport:
    """Each event moves exactly one series by exactly one."""

    @staticmethod
    def _moved(telemetry: Telemetry) -> dict:
        snapshot = telemetry.snapshot()
        assert not snapshot["gauges"] and not snapshot["histograms"]
        return snapshot["counters"]

    def test_one_request_through_respond(self):
        service = DatabaseService(_build_database())
        server = ServiceServer(service, port=0)
        server.start()
        state = {"min_version": 0}      # what a connection carries
        try:
            with use_telemetry(Telemetry()) as telemetry:
                assert server._respond('{"op": "ping"}', state)[0]["ok"]
            assert self._moved(telemetry) == {"serve.net.requests": 1}
            with use_telemetry(Telemetry()) as telemetry:
                assert not server._respond('{"op": "query"}', state)[0]["ok"]
                assert not server._respond('{"op": "bogus"}', state)[0]["ok"]
            assert self._moved(telemetry) == {"serve.net.errors": 2}
            with use_telemetry(Telemetry()) as telemetry:
                assert server._respond(
                    '{"op": "ask", "query": "(P0, WORKS-IN, D0)"}',
                    state)[0]["ok"]
            counters = telemetry.counters
            assert counters["serve.net.requests"] == 1
            assert counters["serve.requests"] == 1
            assert counters["serve.requests.ask"] == 1
            assert telemetry.histograms[
                "serve.request_seconds.ask"].count == 1
        finally:
            server.close()
            service.close()
