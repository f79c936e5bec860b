import sys, time, statistics
sys.path.insert(0, "/root/repo/src"); sys.path.insert(0, "/root/repo/benchmarks/macro")
from world import build_world
from repro.db import Database
from repro.rules.engine import _pivoted_rules
from repro.rules.registry import RuleRegistry
from repro.query.parser import parse_template
w = build_world(1, "write-mix")
db = Database(w.facts, with_axioms=False); db.view(); db.compact_store(); db.view()
facts = sorted(db.facts.match(parse_template("(x, KNOWS, y)")))[:40]
ts = []
for _ in range(200):
    t = time.perf_counter(); _pivoted_rules(list(db.rules)); ts.append(time.perf_counter() - t)
print("_pivoted_rules build p50 us", round(1e6 * statistics.median(ts), 1))
def run(memo):
    orig = RuleRegistry.pivoted
    if not memo:
        RuleRegistry.pivoted = lambda self: _pivoted_rules(list(self))
    try:
        out = []
        for f in facts:
            t = time.perf_counter(); db.remove_fact(f); db.view(); out.append(time.perf_counter() - t)
            db.add_fact(f); db.view()
        return out
    finally:
        RuleRegistry.pivoted = orig
for rep in range(3):
    for memo in (True, False):
        r = run(memo)
        print("memo" if memo else "rebuild", "remove+view p50 us", round(1e6 * statistics.median(r), 1))
print("paired, 300 facts, alternating per fact")
facts = sorted(db.facts.match(parse_template("(x, KNOWS, y)")))[:300]
orig = RuleRegistry.pivoted
res = {True: [], False: []}
for i, f in enumerate(facts):
    for memo in ((True, False) if i % 2 == 0 else (False, True)):
        RuleRegistry.pivoted = orig if memo else (lambda self: _pivoted_rules(list(self)))
        t = time.perf_counter(); db.remove_fact(f); db.view(); res[memo].append(time.perf_counter() - t)
        db.add_fact(f); db.view()
RuleRegistry.pivoted = orig
for memo in (True, False):
    q = statistics.quantiles(res[memo], n=4)
    print("memo" if memo else "rebuild", "p25/p50/p75 us", [round(1e6 * x) for x in q])
wins = sum(a < b for a, b in zip(res[True], res[False]))
print("memo faster in", wins, "of", len(facts))
