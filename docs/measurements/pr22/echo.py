"""What the socket itself costs: a raw loopback echo between two
processes pinned to one CPU, framed like the protocol.

    python echo.py [ROUND_TRIPS]

The parent sends a 100-byte line and reads a 950-byte line back
(``net.bytes_per_request`` on browse-hot is 950.7 B both ways together),
``TCP_NODELAY`` on both ends, one ``sendall`` and one ``recv`` a side:
everything a hot request costs above this is Python executed in the
server or the client, not the network.
"""

import os
import socket
import statistics
import subprocess
import sys
import time


def serve() -> None:
    listener = socket.create_server(("127.0.0.1", 0))
    print(listener.getsockname()[1], flush=True)
    conn, _ = listener.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reply = b"y" * 849 + b"\n"
    while True:
        if not conn.recv(1 << 16):
            return
        conn.sendall(reply)


def main() -> None:
    trips = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})          # the child inherits it
    child = subprocess.Popen([sys.executable, __file__, "serve"],
                             stdout=subprocess.PIPE, text=True)
    port = int(child.stdout.readline())
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    request = b"x" * 99 + b"\n"
    laps = []
    for _ in range(trips):
        started = time.perf_counter()
        sock.sendall(request)
        got = 0
        while got < 850:
            got += len(sock.recv(1 << 16))
        laps.append(time.perf_counter() - started)
    sock.close()
    child.wait(10)
    laps = laps[trips // 10:]               # let both sides warm up
    q = statistics.quantiles(laps, n=4)
    print(f"raw echo, pinned to cpu {cpu}: p50 {1e6 * q[1]:.1f} us"
          f" [{1e6 * q[0]:.1f} .. {1e6 * q[2]:.1f}] over {len(laps)}"
          f" round trips, min {1e6 * min(laps):.1f} us")


if __name__ == "__main__":
    serve() if sys.argv[1:] == ["serve"] else main()
