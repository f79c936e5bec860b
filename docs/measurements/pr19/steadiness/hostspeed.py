"""hostspeed.py — one pure-compute loop (200 000 integer operations, no
allocation, no I/O, no repro import) timed back to back for 20 s on the CPU
the macro benchmark pins itself to: the quantiles of the chunk times, then
the median chunk time of each successive 40 chunks (~0.7 s)."""
import time, statistics, os
os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})
def chunk():
    t0 = time.perf_counter(); x = 0
    for i in range(200000): x += i * i % 7
    return (time.perf_counter() - t0) * 1e3
vals = []
end = time.time() + 20
while time.time() < end:
    vals.append(chunk())
q = statistics.quantiles(vals, n=20)
print("n", len(vals), "min %.2f" % min(vals), "p5 %.2f p25 %.2f p50 %.2f p75 %.2f p95 %.2f" % (q[0], q[4], q[9], q[14], q[18]), "max %.1f" % max(vals))
# per-second medians
per = [statistics.median(vals[i:i+40]) for i in range(0, len(vals), 40)]
print(" ".join("%.1f" % p for p in per))
