#!/usr/bin/env python3
"""Prometheus exporter bridging a repro server to a scrape endpoint.

The JSON-lines protocol's ``metrics`` verb returns a merged snapshot
(primary plus replica workers); this tool turns that into Prometheus
text exposition format 0.0.4 — either once to stdout (for piping into
a textfile collector) or continuously over a tiny stdlib HTTP server
that Prometheus can scrape directly.

One-shot:     python tools/prom_exporter.py localhost:7474
HTTP bridge:  python tools/prom_exporter.py localhost:7474 --listen 9464
              # then scrape http://127.0.0.1:9464/metrics

The server being scraped must be running with metrics collection on
(``python -m repro.shell serve ... --metrics``); without it the
snapshot is empty and the exposition contains no series.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.telemetry import to_prometheus  # noqa: E402
from repro.serve.net import ServiceClient  # noqa: E402


def scrape(host: str, port: int, prefix: str) -> str:
    """One exposition document from a running server (its workers are
    asked for their metrics as it is taken)."""
    with ServiceClient(host, port) as client:
        snapshot = client.metrics()
    return to_prometheus(snapshot, prefix=prefix)


def serve_http(host: str, port: int, listen_port: int,
               prefix: str) -> None:
    """A minimal scrape endpoint: GET /metrics → text exposition."""
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_error(404)
                return
            try:
                body = scrape(host, port, prefix).encode("utf-8")
            except OSError as error:
                self.send_error(502, f"upstream unreachable: {error}")
                return
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # quiet: one line per scrape is noise
            pass

    endpoint = HTTPServer(("127.0.0.1", listen_port), Handler)
    print(f"exporting {host}:{port} metrics on"
          f" http://127.0.0.1:{endpoint.server_port}/metrics"
          " (ctrl-c stops)")
    try:
        endpoint.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        endpoint.server_close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Export a repro server's metrics in Prometheus"
                    " text format.")
    parser.add_argument("address", help="HOST[:PORT] of a running server")
    parser.add_argument("--listen", type=int, default=None, metavar="PORT",
                        help="serve a /metrics HTTP endpoint on this port"
                             " instead of printing once (0 = ephemeral)")
    parser.add_argument("--prefix", default="repro",
                        help="metric name prefix (default: repro)")
    options = parser.parse_args(argv)
    host, _, port_text = options.address.partition(":")
    host = host or "127.0.0.1"
    port = int(port_text) if port_text else 7474
    if options.listen is None:
        sys.stdout.write(scrape(host, port, options.prefix))
        return 0
    serve_http(host, port, options.listen, options.prefix)
    return 0


if __name__ == "__main__":
    sys.exit(main())
