"""Where ``setup_s`` goes: one spawn of the browse-hot child on TREE,
its stage marks, and the first session answered over TCP.

    python setup_stages.py TREE      # one JSON line; alternate trees by hand
"""
import sys, time, tempfile, json
from pathlib import Path
tree = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(tree / "src")); sys.path.insert(0, str(tree / "benchmarks" / "macro"))
import wire
from world import build_world, write_directory, probe_session
wire.pin_to_one_cpu()
world = build_world(1, "browse-hot")
first = probe_session(world)
with tempfile.TemporaryDirectory() as scratch:
    d = Path(scratch) / "db"; d.mkdir(); write_directory(world, d, "browse-hot")
    server = wire.Server("browse-hot", d)
    try:
        client = wire.ServiceClient("127.0.0.1", server.port, timeout=60)
        wire.run_session(client, first)
        answered = time.perf_counter()
        m = server.marks
        print(json.dumps({"tree": tree.name, "spawn": round(m["imported"]-server.spawned,4), "load": round(m["loaded"]-m["imported"],4),
              "closure": round(m["closed"]-m["loaded"],4), "compact": round(m["compacted"]-m["closed"],4),
              "service": round(m["service"]-m["measured"],4), "first": round(answered-m["pool"],4), "total": round(answered-server.spawned,4)}))
        client.close(); server.stop()
    except BaseException:
        server.kill(); raise
