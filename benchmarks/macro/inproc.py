"""Inside the server child: timing public entry points from outside.

A traced run asks the child that served the wire window to time the
same kinds of request *below* the wire, in its own process, on its own
stack and caches — the rungs of the ladder (see ``ladder.py``) — and
then the layers' public functions directly.  Nothing under ``src/`` is
instrumented: every number here is ``perf_counter`` around one call to
a public name.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

from repro.browse.lattice import GeneralizationLattice
from repro.browse.navigation import navigate as navigate_uncached
from repro.core.facts import Fact
from repro.db import Database
from repro.query.compile import compile_query
from repro.query.exec import execute_plan
from repro.query.parser import parse_query, parse_template
from repro.storage.journal import OP_ADD
from repro.storage.session import DurableSession
from repro.storage.snapshot import read_snapshot


def rows(value) -> list:
    return sorted(list(row) for row in value)


def wire_form(kind: str, answer):
    """An in-process answer (``NavigationResult``, ``ProbeResult``, row
    set, replica dict) in the shape the TCP protocol ships."""
    if kind in ("navigate", "shows"):
        return answer if isinstance(answer, str) else answer.render()
    if kind in ("probe", "menu"):
        if isinstance(answer, dict):
            return {"succeeded": answer["succeeded"],
                    "value": rows(answer["value"]),
                    "waves": answer["waves"]}
        return {"succeeded": answer.succeeded,
                "value": rows(answer.value),
                "waves": len(answer.waves)}
    if kind == "query":
        return rows(answer)
    return answer


def _timed(fn: Callable, *args):
    started = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - started


def _p50_of(fn: Callable, arguments) -> float:
    return statistics.median(_timed(fn, a)[1] for a in arguments)


# ----------------------------------------------------------------------
# The rungs below the wire
# ----------------------------------------------------------------------
def read_at(service, pool, rung: str, kind: str, verb: str,
            text: str) -> dict:
    """One read at one rung; the reply carries the answer in wire form
    (plus, where the rung returns a ``ProbeResult``, the ordered menu
    the wire does not ship) for the harness's oracle."""
    started = time.perf_counter()
    if rung == "pool":
        answer = getattr(pool, verb)(
            text, min_version=service.applied_seq)
    elif rung == "service":
        answer = getattr(service, verb)(text)
    else:
        answer = getattr(service.read_view(), verb)(text)
    if verb == "navigate" and not isinstance(answer, str):
        # The wire path renders on the server side of the hop
        # (browse/render.py), so every rung includes it.
        answer = answer.render()
    seconds = time.perf_counter() - started
    menu = None
    if kind == "menu" and not isinstance(answer, dict):
        menu = [success.describe() for success in answer.successes]
    return {"answer": wire_form(kind, answer), "menu": menu,
            "seconds": seconds}


def write_acks(service, triples) -> float:
    """``DatabaseService.add`` / ``remove`` to ticket settled: the p50
    over pairs of the mean of an add and the remove that undoes it
    (the two cost very differently — a remove re-derives)."""
    return statistics.median(
        (_timed(service.add, *triple)[1]
         + _timed(service.remove, *triple)[1]) / 2 for triple in triples)


# ----------------------------------------------------------------------
# The leaves: public functions, called directly, uncached
# ----------------------------------------------------------------------
def leaves(service, texts: Dict[str, List[str]]) -> Dict[str, float]:
    snap = service.read_view()
    view = snap.view()
    m: Dict[str, float] = {}
    m["parser.parse_p50_us"] = 1e6 * _p50_of(parse_query, texts["query"])
    parsed = [parse_query(t) for t in texts["query"]]
    m["compile.compile_p50_us"] = 1e6 * _p50_of(
        lambda q: compile_query(q, view), parsed)
    plans = [compile_query(q, view) for q in parsed]
    executions = [_timed(execute_plan, plan, view) for plan in plans]
    m["exec.join_p50_us"] = 1e6 * statistics.median(
        took for _v, took in executions)
    m["exec.id_domain_share"] = sum(
        1 for (_table, ran), _t in executions if ran.id_domain) \
        / len(executions)
    m["navigation.star_p50_us"] = 1e6 * _p50_of(
        lambda t: navigate_uncached(view, t), texts["navigate"])
    templates = [parse_template(t) for t in texts["navigate"]]
    m["store.match_p50_us"] = 1e6 * _p50_of(
        lambda t: list(view.match(t)), templates)
    # ``engine=`` is db.probe's escape hatch: a bare evaluator, so no
    # plan cache, no result cache and no menu cache can answer.
    engine = snap.query_engine
    m["retraction.ok_probe_p50_us"] = 1e6 * _p50_of(
        lambda t: snap.probe(t, engine=engine), texts["probe"])
    menus = [_timed(lambda: snap.probe(t, engine=engine))
             for t in texts["menu"]]
    m["retraction.menu_cold_p50_us"] = 1e6 * statistics.median(
        took for _v, took in menus)
    m["retraction.candidates_per_menu"] = sum(
        len(wave.attempted) for outcome, _t in menus
        for wave in outcome.waves) / len(menus)
    _lattice, m["lattice.build_s"] = _timed(
        GeneralizationLattice.from_store, snap.closure().store)
    stores = (snap.facts, snap.closure().store)
    m["interned.bytes_per_fact"] = 0.0
    if all(getattr(s, "generation", None) is not None for s in stores):
        m["interned.bytes_per_fact"] = \
            sum(s.generation.nbytes() for s in stores) \
            / sum(len(s) for s in stores)
    return m


# ----------------------------------------------------------------------
# Storage, on a pristine copy of the directory and a scratch one
# ----------------------------------------------------------------------
def storage(pristine: str, scratch: str) -> Dict[str, float]:
    """``DurableSession.recover`` step by step, so snapshot parse and
    journal replay can be timed apart (same public calls); then journal
    appends and checkpoints of the recovered database into ``scratch``.
    """
    m: Dict[str, float] = {}
    source = DurableSession(pristine)
    state, m["snapshot.read_s"] = _timed(read_snapshot,
                                         source.snapshot_path)
    db = Database(with_axioms=False)
    db.rules.restore_state(state.rule_states)
    db.composition_limit = state.composition_limit
    db.add_facts(state.facts)
    started = time.perf_counter()
    for entry in source.journal.entries(strict=False):
        if entry.op == OP_ADD:
            db.add_fact(entry.fact)
        else:
            db.remove_fact(entry.fact)
    m["journal.replay_s"] = time.perf_counter() - started

    session = DurableSession(scratch)
    try:
        facts = [Fact(f"SCRATCH{i}", "KNOWS", "SKILL0") for i in range(50)]
        m["journal.append_p50_us"] = 1e6 * _p50_of(
            lambda f: session.record_batch([("add", f)]), facts)
        m["journal.bytes_per_fact"] = \
            session.journal.path.stat().st_size / len(facts)
        m["session.checkpoint_p50_ms"] = 1e3 * _p50_of(
            lambda _i: session.checkpoint(database=db), range(3))
        m["snapshot.bytes_per_fact"] = \
            session.snapshot_path.stat().st_size / len(db.facts)
    finally:
        session.close()
    return m


def master_write_path(db: Database) -> Dict[str, float]:
    """The layers under an acknowledged write, on the master database
    before the service takes it over: remove ten stored ``KNOWS`` facts
    and add them back (the heap ends as it began), and copy it."""
    facts = sorted(db.facts.match(parse_template("(x, KNOWS, y)")))[:10]

    def remove(f):
        db.remove_fact(f)
        db.view()

    def add(f):
        db.add_fact(f)
        db.view()

    return {
        "dispatch.remove_p50_us": 1e6 * _p50_of(remove, facts),
        "dispatch.incremental_add_p50_us": 1e6 * _p50_of(add, facts),
        "db.snapshot_p50_ms": 1e3 * _p50_of(
            lambda _f: db.snapshot(), facts),
    }
