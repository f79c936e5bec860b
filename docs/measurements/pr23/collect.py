"""collect.py PAIRS_DIR > runs.jsonl — keep of every run the ``exact``
lines and the last line (the object the driver reads), one line a run.

``PAIRS_DIR`` holds one sub-directory per set as ``../pr22/macro/
pairs.sh`` leaves it: ``<workload>_<side>_<pair>_s<seed>.json``.
"""
import json
import re
import sys
from pathlib import Path

for path in sorted(Path(sys.argv[1]).glob("*/*_s*.json")):
    match = re.fullmatch(r"(.+)_(parent|change)_(\d+)_s(\d+)\.json",
                         path.name)
    lines = path.read_text().strip().splitlines()
    if not lines:       # a run still in progress
        continue
    print(json.dumps({
        "set": path.parent.name, "workload": match.group(1),
        "side": match.group(2), "pair": int(match.group(3)),
        "seed": int(match.group(4)),
        "exact": sorted(line.strip() for line in lines
                        if line.startswith("  exact ")),
        "result": json.loads(lines[-1])}))
