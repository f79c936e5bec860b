"""Documentation health: examples execute, links resolve, the
metric catalog matches the code.

Thin pytest wrapper over ``tools/docs_check.py`` so the docs gate runs
with the tier-1 suite as well as in its dedicated CI job.
"""

import sys
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
                     "plancache.misses", "lattice.builds",
                     "writer.apply_batch"):
            self.assertIn(name, emitted)

    def test_block_extraction_sees_the_readme(self):
        blocks = list(docs_check.iter_python_blocks(ROOT / "README.md"))
        self.assertGreaterEqual(len(blocks), 3)
        for lineno, source in blocks:
            self.assertGreater(lineno, 0)
            self.assertTrue(source.strip())


if __name__ == "__main__":
    unittest.main()
