"""Three ways to walk the index for a batch of keys, in one process.

    python leaf_variants.py TREE [PARENT]

``TREE`` is this PR's checkout.  On the compacted browse-cold world,
for each ``spec`` and 1 / 2 / 4 / 100 keys taken from real facts, the
best of seven timings (µs per call) of

* ``per_key``: what ``lookup_many_ids`` did before PR 28 — check each
  key's ids, then ``ColumnarGeneration.positions(spec, key)``;
* ``three_pass``: the design the issue started from — pack the keys,
  ``map(bisect_left, repeat(index), packed)``, slice;
* ``loop``: ``ColumnarGeneration.positions_many`` as shipped — the
  index resolved once, then a per-key loop with the bisect inline.

All three return the same runs (asserted).  One process, so the host's
speed is the same for all three.  With ``PARENT`` (a checkout of the
parent commit) the whole call is timed as well: the parent's
``lookup_many_ids`` body, compiled from its source file and run over
this tree's store, against this tree's, for ``sr`` keys and one
output column (rows ``"call": "lookup_many_ids"``).
"""

import itertools
import json
import random
import sys
import timeit
from bisect import bisect_left
from pathlib import Path

from stages import load


def per_key(gen, spec, keys):
    base = len(gen.interner)
    runs = []
    for ids in keys:
        for i in ids:
            if i is None or i >= base:
                runs.append(())
                break
        else:
            runs.append(gen.positions(spec, ids))
    return runs


def three_pass(gen, spec, keys):
    base = len(gen.start_s) - 1
    index, starts, perm = gen._BATCH_INDEX[spec]
    starts = getattr(gen, starts)
    perm = perm and getattr(gen, perm)
    if index is None:
        found = [i if i is not None and i < base else -1 for (i,) in keys]
    else:
        index = getattr(gen, index)
        a, b = (1, 0) if spec == "st" else (0, 1)
        packed = [key[a] * base + key[b]
                  if None not in key and key[a] < base and key[b] < base
                  else -1 for key in keys]
        last = len(index) - 1
        found = [k if k <= last and index[k] == p else -1
                 for k, p in zip(map(bisect_left, itertools.repeat(index),
                                     packed), packed)]
    if perm is None:
        runs = [range(starts[k], starts[k + 1]) if k >= 0 else ()
                for k in found]
    else:
        runs = [perm[starts[k]:starts[k + 1]] if k >= 0 else ()
                for k in found]
    if spec == "srt":
        tcol = gen.tcol
        for n, run in enumerate(runs):
            if run:
                at = bisect_left(tcol, keys[n][2], run.start, run.stop)
                runs[n] = (at,) if at < run.stop \
                    and tcol[at] == keys[n][2] else ()
    return runs


def loop(gen, spec, keys):
    return gen.positions_many(spec, keys)


def main() -> None:
    tree = Path(sys.argv[1]).resolve()
    store = load(tree, 1, False).view.store
    gen = store.generation
    facts = [(gen.scol[i], gen.rcol[i], gen.tcol[i])
             for i in random.Random(5).sample(range(gen.n), 100)]
    for spec in ("s", "t", "sr", "rt", "st", "srt"):
        columns = ["srt".index(letter) for letter in spec]
        every = [tuple(fact[c] for c in columns) for fact in facts]
        for count in (1, 2, 4, 100):
            keys = every[:count]
            want = [list(run) for run in per_key(gen, spec, keys)]
            row = {"spec": spec, "keys": count}
            for variant in (per_key, three_pass, loop):
                assert [list(run)
                        for run in variant(gen, spec, keys)] == want
                number = 100000 // count
                row[f"{variant.__name__}_us"] = round(1e6 * min(
                    timeit.repeat(lambda: variant(gen, spec, keys),
                                  number=number, repeat=7)) / number, 2)
            print(json.dumps(row))
    if len(sys.argv) > 2:
        whole_call(store, facts, Path(sys.argv[2]).resolve())


def whole_call(store, facts, parent: Path) -> None:
    import repro.core.interned as interned
    source = (parent / "src/repro/core/interned.py").read_text()
    method = source[source.index("    def lookup_many_ids("):
                    source.index("    def entity_id_domain(")]
    namespace = dict(vars(interned))
    exec("\n".join(line[4:] for line in method.splitlines()), namespace)
    old = namespace["lookup_many_ids"]
    new = type(store).lookup_many_ids
    every = [fact[:2] for fact in facts]
    for count in (1, 2, 4, 100):
        keys = every[:count]
        assert old(store, "sr", keys, positions=[2]) \
            == new(store, "sr", keys, positions=[2])
        number = 200000 // count
        row = {"call": "lookup_many_ids", "spec": "sr", "keys": count}
        for name, call in (("parent", old), ("change", new)):
            row[f"{name}_us"] = round(1e6 * min(timeit.repeat(
                lambda: call(store, "sr", keys, positions=[2]),
                number=number, repeat=7)) / number, 2)
        print(json.dumps(row))


if __name__ == "__main__":
    main()
