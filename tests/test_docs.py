"""Documentation health: examples execute, links resolve, the
metric catalog matches the code, code spans name only symbols that
exist, and the served path names one rule engine and no plan cache.

Thin pytest wrapper over ``tools/docs_check.py`` so the docs gate runs
with the tier-1 suite as well as in its dedicated CI job.
"""

import importlib
import re
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import docs_check  # noqa: E402


class TestDocumentation(unittest.TestCase):
    def test_relative_links_resolve(self):
        self.assertEqual(docs_check.check_links(), [])

    def test_fenced_python_examples_execute(self):
        failures = docs_check.check_examples()
        self.assertEqual(
            failures, [],
            "documentation examples failed:\n" + "\n".join(failures))

    def test_metric_catalog_matches_the_code(self):
        self.assertEqual(docs_check.check_catalog(), [])
        # The extraction sees plain literals, f-strings, conditionals
        # and the lattice helper, so the equality above is not vacuous.
        emitted = docs_check.emitted_names()
        for name in ("browse.probes", "serve.requests.<op>",
                     "exec.plans", "lattice.builds",
                     "writer.apply_batch"):
            self.assertIn(name, emitted)

    def test_docs_name_only_symbols_that_exist(self):
        self.assertEqual(docs_check.check_symbols(), [])
        with tempfile.TemporaryDirectory() as directory:
            doc = Path(directory) / "stale.md"
            doc.write_text(
                "`repro.query.exec.ID_DOMAIN` is gone, while\n"
                "`repro.query.exec.CompiledEvaluator`,"
                " `query/exec.py::execute_plan` and"
                " `tests/test_docs.py::TestDocumentation` are not;\n"
                "`src/repro/query/exec.py::_probe_many` and"
                " `tests/test_docs.py::test_nothing_here` are gone too.\n",
                encoding="utf-8")
            failures = docs_check.check_symbols([str(doc)])
        self.assertEqual(
            [failure.split(": ", 1)[1].split("`")[1]
             for failure in failures],
            ["repro.query.exec.ID_DOMAIN",
             "src/repro/query/exec.py::_probe_many",
             "tests/test_docs.py::test_nothing_here"])

    def test_block_extraction_sees_the_readme(self):
        blocks = list(docs_check.iter_python_blocks(ROOT / "README.md"))
        self.assertGreaterEqual(len(blocks), 3)
        for lineno, source in blocks:
            self.assertGreater(lineno, 0)
            self.assertTrue(source.strip())

    def test_the_served_path_names_no_interpreted_engine(self):
        """``Database`` and ``serve/`` run the compiled rule set only:
        the interpreted references stay importable for the equivalence
        suites, but nothing on the served path spells their names, and
        the lazy engine is gone."""
        package = ROOT / "src" / "repro"
        served = [package / "db.py", package / "rules" / "deletion.py",
                  package / "rules" / "registry.py",
                  *sorted((package / "serve").glob("*.py"))]
        interpreted = re.compile(
            r"\b(naive_closure|semi_naive_closure|_semi_naive_rounds"
            r"|_fire|_pivoted_rules)\b")
        for path in served:
            self.assertEqual(
                interpreted.findall(path.read_text(encoding="utf-8")), [],
                path.name)
        with self.assertRaises(ModuleNotFoundError):
            importlib.import_module("repro.rules.lazy")

    def test_the_query_path_names_no_plan_cache(self):
        """Plans are remembered nowhere: the module is gone and nothing
        in ``db.py``, ``query/`` or ``serve/`` spells the vocabulary
        that kept it honest."""
        package = ROOT / "src" / "repro"
        paths = [package / "db.py",
                 *sorted((package / "query").glob("*.py")),
                 *sorted((package / "serve").glob("*.py"))]
        vocabulary = re.compile(
            r"\b(PlanCache|plan_epoch|data_token|_config_epoch)\b")
        for path in paths:
            self.assertEqual(
                vocabulary.findall(path.read_text(encoding="utf-8")), [],
                path.name)
        with self.assertRaises(ModuleNotFoundError):
            importlib.import_module("repro.query.plancache")


if __name__ == "__main__":
    unittest.main()
