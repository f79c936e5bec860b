"""The serving import graph holds only serving code.

What ``import repro`` and the modules a server starts from load is
what every server process pays before it reads a byte of data.  These
tests pin three things, each in a fresh interpreter so nothing the
suite imported earlier hides a module:

* the boundary: the serving imports load no reference, exporter,
  dashboard, interchange, replica-pool or benchmark module, and neither
  networkx nor :mod:`multiprocessing`; the reference query evaluator
  loads when a caller first picks it, and answers what the compiled
  engine answers;
* the names: every package-level name still resolves to its defining
  module's object, before and after every submodule is imported — a
  submodule imported lazily rebinds the package attribute of the same
  name (``repro.query.explain`` is both a function and a module), so
  that submodule stays eager, and ``repro.browse.probe`` stays the
  function with the reference hierarchy loaded;
* the production path without networkx: a served database navigates,
  probes (both ways) and queries with networkx unimportable, and
  answers what an in-process database answers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.datasets import university

SOURCE_ROOT = Path(repro.__file__).resolve().parent.parent

#: What a server starts from: the package, the service, the wire, the
#: durable directory and the shell's ``serve`` entry point.
SERVING_IMPORTS = ("repro", "repro.serve", "repro.serve.net",
                   "repro.storage.session", "repro.shell")

#: Modules (and packages, with everything under them) no serving path
#: runs.
OFFLINE = ("networkx", "multiprocessing", "repro.benchio",
           "repro.serve.pool", "repro.obs.export", "repro.obs.monitor",
           "repro.storage.interchange", "repro.query.reference",
           "repro.browse.paths", "repro.rules.engine",
           "repro.query.evaluate", "repro.browse.hierarchy",
           "repro.rules.composition")

PACKAGES = ("repro.browse", "repro.obs", "repro.query", "repro.serve",
            "repro.storage")

NAVIGATE = "(OPERA, *, *)"
SUCCEEDS = "(x, LOVES, MUSIC)"
FAILS = "(STUDENT, LOVE, z) and (z, COSTS, FREE)"
QUERY = "(x, ENJOYS, y)"


def _run(script: str):
    """Run ``script`` in a fresh interpreter; its last output line is
    JSON."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SOURCE_ROOT)] + ([path] if path else [])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _offline(modules):
    return sorted(name for name in modules
                  if any(name == prefix or name.startswith(prefix + ".")
                         for prefix in OFFLINE))


class TestServingImportBoundary:
    def test_serving_imports_load_no_offline_module(self):
        modules = _run(
            "import json, sys\n"
            f"import {', '.join(SERVING_IMPORTS)}\n"
            "print(json.dumps(sorted(sys.modules)))\n")
        assert _offline(modules) == []
        # Not vacuous: the serving stack itself did load.
        for name in ("repro.serve.service", "repro.serve.net",
                     "repro.browse.lattice", "repro.query.exec"):
            assert name in modules

    def test_exporters_and_explain_load_no_benchmark_module(self):
        modules = _run(
            "import json, sys\n"
            "import repro.obs.export\n"
            "from repro import Database\n"
            "db = Database()\n"
            "db.add('A', 'R', 'B')\n"
            "db.explain_analyze('(x, R, y)').render()\n"
            "print(json.dumps(sorted(sys.modules)))\n")
        assert "repro.obs.export" in modules
        assert not [name for name in modules
                    if name.startswith("repro.benchio")]

    def test_the_closure_engine_holds_no_hash_seed(self):
        """The closure grows ids on the base generation: the engine
        module names no hash working store's seed."""
        import repro.rules.dispatch as dispatch

        assert not hasattr(dispatch, "seed_store")


_FIRST_USE_SCRIPT = """
import json, sys

from repro import Database
from repro.datasets import university

compiled = university.load()
reference = university.load(Database(query_engine="reference"))
USES = {  # (the compiled answer, the reference answer)
    "query": (lambda: sorted(compiled.query(QUERY)),
              lambda: sorted(reference.query(QUERY))),
    "probe": (lambda: compiled.probe(FAILS).menu(),
              lambda: compiled.probe(FAILS, engine="reference").menu()),
    "explain_analyze": (
        lambda: sorted(compiled.explain_analyze(QUERY).value),
        lambda: sorted(reference.explain_analyze(QUERY).value)),
}
by_compiled, by_reference = USES[USE]
found = {"compiled": by_compiled()}
found["before"] = "repro.query.evaluate" in sys.modules
found["reference"] = by_reference()
found["after"] = "repro.query.evaluate" in sys.modules
print(json.dumps(found))
"""


class TestReferenceEvaluatorLoadsOnFirstUse:
    @pytest.mark.parametrize("use", ["query", "probe", "explain_analyze"])
    def test_loaded_by_the_caller_that_picks_it(self, use):
        found = _run(f"QUERY, FAILS, USE = {(QUERY, FAILS, use)!r}\n"
                     + _FIRST_USE_SCRIPT)
        assert found["before"] is False
        assert found["after"] is True
        assert found["reference"] == found["compiled"]
        assert found["compiled"]


_NAMES_SCRIPT = """
import importlib, json, pkgutil, sys

#: Homes of the exported names that carry no ``__module__``.
CONSTANTS = {"ALIASES": "repro.query.parser",
             "OP_ADD": "repro.storage.journal",
             "OP_REMOVE": "repro.storage.journal"}


def misplaced(package):
    wrong = []
    for name in package.__all__:
        try:
            value = getattr(package, name)
        except AttributeError:
            wrong.append(f"{package.__name__}.{name}: missing")
            continue
        home = CONSTANTS.get(name) or getattr(value, "__module__", None)
        if not (isinstance(home, str) and home in sys.modules
                and getattr(sys.modules[home], name, None) is value):
            wrong.append(f"{package.__name__}.{name}: {value!r}")
    return wrong


packages = [importlib.import_module(name) for name in PACKAGES]
before = [entry for package in packages for entry in misplaced(package)]
for package in packages:
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{package.__name__}.{info.name}")
after = [entry for package in packages for entry in misplaced(package)]
import repro.browse, repro.query
print(json.dumps({
    "before": before,
    "after": after,
    "probe": repro.browse.probe is sys.modules["repro.browse.retraction"].probe,
    "explain": repro.query.explain is sys.modules["repro.query.explain"].explain,
    "hierarchy_module": "repro.browse.hierarchy" in sys.modules,
    "explain_module": "repro.query.explain" in sys.modules,
}))
"""


class TestNamesStayWhereCallersFindThem:
    def test_every_exported_name_is_its_defining_modules_object(self):
        found = _run(f"PACKAGES = {PACKAGES!r}\n" + _NAMES_SCRIPT)
        assert found["before"] == []
        assert found["after"] == []
        # ``repro.query.explain`` is also a submodule and stays the
        # function; ``repro.browse.probe`` stays the function with the
        # reference hierarchy loaded beside it.
        assert found["hierarchy_module"] and found["explain_module"]
        assert found["probe"] is True
        assert found["explain"] is True


_SERVED_SCRIPT = """
import json, sys

sys.modules["networkx"] = None      # unimportable from here on

from repro.browse.hierarchy import GeneralizationHierarchy
from repro.datasets import university
from repro.serve import DatabaseService
from repro.serve.net import ServiceClient, ServiceServer

service = DatabaseService(university.load())
server = ServiceServer(service, port=0)
server.start()
try:
    with ServiceClient(*server.address) as client:
        answers = {"navigate": client.navigate(NAVIGATE),
                   "probe": client.probe(SUCCEEDS),
                   "menu": client.probe(FAILS),
                   "query": client.query(QUERY)}
    answers["menu_text"] = service.probe(FAILS).menu()
finally:
    server.close()
    service.close()
try:
    GeneralizationHierarchy([], [])
except ImportError as error:
    answers["reference"] = str(error)
answers["networkx_unloaded"] = sys.modules["networkx"] is None
print(json.dumps(answers))
"""


def _wire_probe(outcome) -> dict:
    return {"succeeded": outcome.succeeded,
            "value": [list(row) for row in sorted(outcome.value)],
            "waves": len(outcome.waves)}


class TestProductionWithoutNetworkx:
    def test_served_answers_equal_in_process_answers(self):
        served = _run(f"NAVIGATE, SUCCEEDS, FAILS, QUERY = "
                      f"{(NAVIGATE, SUCCEEDS, FAILS, QUERY)!r}\n"
                      + _SERVED_SCRIPT)
        db = university.load()
        failed = db.probe(FAILS)
        assert not failed.succeeded and failed.successes
        assert served.pop("reference").startswith(
            "networkx is required for the reference")
        assert served.pop("networkx_unloaded") is True
        assert served == {
            "navigate": db.navigate(NAVIGATE).render(),
            "probe": _wire_probe(db.probe(SUCCEEDS)),
            "menu": _wire_probe(failed),
            "query": [list(row) for row in sorted(db.query(QUERY))],
            "menu_text": failed.menu(),
        }
