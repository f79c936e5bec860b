"""Observation must never change behavior.

Regression guard for the instrumentation layer: enabling telemetry
changes no query result, no closure content, and no probe outcome —
on both the movies and university datasets.  (The counters are free to
differ; the *semantics* are not.)
"""

from __future__ import annotations

import pytest

from repro.datasets import movies, university
from repro.obs import NULL_TELEMETRY, Telemetry, use_telemetry
from repro.obs import telemetry as telemetry_module

_QUERIES = {
    "movies": [
        "(x, ∈, FILM)",
        "(x, DIRECTED-BY, TARKOVSKY)",
        "(x, ∈, SCIENCE-FICTION) and (x, DIRECTED-BY, y)",
        "(SOLARIS-1972, r, y)",
        "exists y: (x, WROTE, y) and (y, ∈, FILM)",
    ],
    "university": [
        "(x, LOVES, OPERA)",
        "(x, ENJOYS, MUSIC)",
        university.STUDENTS_LOVE_FREE,
        university.QUARTERBACKS_FROM_USC,
        "(z, ∈, QUARTERBACK) and (z, ATTENDED, USC)",
    ],
}

_LOADERS = {"movies": movies.load, "university": university.load}


@pytest.fixture(autouse=True)
def _pristine_global_spine():
    saved = (telemetry_module.TELEMETRY, telemetry_module.ENABLED)
    telemetry_module.TELEMETRY, telemetry_module.ENABLED = NULL_TELEMETRY, False
    yield
    telemetry_module.TELEMETRY, telemetry_module.ENABLED = saved
    telemetry_module._sync_collector_hook()  # noqa: SLF001


def _observe(dataset):
    """Closure contents, query values, and probe outcomes — everything
    that counts as the system's observable behavior."""
    db = _LOADERS[dataset]()
    closure = db.closure()
    outcome = {
        "closure": frozenset(closure.store),
        "iterations": closure.iterations,
        "rule_firings": dict(closure.rule_firings),
        "queries": {q: frozenset(db.query(q)) for q in _QUERIES[dataset]},
        "navigation": db.navigate("(x, *, *)"
                                  if dataset == "movies"
                                  else "(TOM, *, *)").render(),
    }
    if dataset == "university":
        probe = db.probe(university.STUDENTS_LOVE_FREE)
        outcome["probe"] = (probe.succeeded, len(probe.waves),
                            [sorted(((s.describe(), frozenset(s.value))
                                     for s in wave.successes),
                                    key=lambda pair: pair[0])
                             for wave in probe.waves])
    return outcome


@pytest.mark.parametrize("dataset", sorted(_QUERIES))
def test_telemetry_changes_nothing(dataset):
    baseline = _observe(dataset)
    with use_telemetry(Telemetry()) as telemetry:
        traced = _observe(dataset)
    assert traced == baseline
    # Sanity: the traced run actually collected something, so this test
    # would notice if instrumentation silently disappeared.
    assert telemetry.counters


@pytest.mark.parametrize("dataset", sorted(_QUERIES))
def test_enable_disable_round_trip_is_neutral(dataset):
    """Results after telemetry has been enabled and disabled again match
    the never-traced baseline."""
    from repro.obs import disable_telemetry, enable_telemetry

    baseline = _observe(dataset)
    enable_telemetry(fresh=True)
    _observe(dataset)
    disable_telemetry()
    assert _observe(dataset) == baseline
