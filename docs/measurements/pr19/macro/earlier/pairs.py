"""pairs.py LABEL WORKLOAD N [seed0] — alternating parent/change runs; appends JSON lines."""
import json, subprocess, sys, time
label, workload, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
seed0 = int(sys.argv[4]) if len(sys.argv) > 4 else 1
trees = {"parent": "/root/scratch/parent", "change": "/root/repo"}
out = open(f"/root/scratch/runs/{label}-{workload}.jsonl", "a")
for i in range(n):
    seed = seed0 + i % 4 if seed0 < 100 else seed0
    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    for side in order:
        p = subprocess.run(["python3", "benchmarks/macro/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", "10", "--trace", "0"],
                           cwd=trees[side], capture_output=True, text=True)
        last = p.stdout.strip().splitlines()[-1]
        try:
            doc = json.loads(last)
        except Exception:
            doc = {"error": p.stdout[-2000:] + p.stderr[-2000:]}
        rec = {"pair": i, "seed": seed, "side": side, "first": order[0],
               "correct": doc.get("correct"), "attempted": doc.get("attempted"), "failed": doc.get("failed"),
               "metrics": {k: v["value"] for k, v in doc.get("metrics", {}).items()}, "error": doc.get("error")}
        out.write(json.dumps(rec) + "\n"); out.flush()
        print(side, seed, {k: round(v, 1) for k, v in rec["metrics"].items()}, flush=True)
