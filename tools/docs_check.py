#!/usr/bin/env python3
"""Documentation checker: executable examples, dead links, metric catalog.

Three checks, all designed to keep the docs honest as the code moves:

1. **Fenced ``python`` blocks run.**  Every ```` ```python ```` block in
   ``README.md`` and ``docs/*.md`` is executed, in order, in a fresh
   namespace with the working directory switched to a throwaway temp
   dir (so examples may create files freely).  A block may opt out with
   a ``<!-- docs-check: skip -->`` comment on the line before the fence.

2. **Relative links resolve.**  Every ``[text](target)`` link in the
   repository's markdown files must point at a file that exists.
   ``http(s)://`` / ``mailto:`` links and pure ``#anchors`` are not
   checked (CI has no network and anchors move with headings).

3. **The metric catalog matches the code.**  Every series or span
   name literal passed to the telemetry spine (or a trace context) in
   ``src/`` must appear in the "Metric catalog" table of
   ``docs/operations.md``, and the table must list no name the code
   does not emit.

Run:  python tools/docs_check.py            # check everything
      python tools/docs_check.py --links    # links + catalog only (fast)
Exits non-zero on the first category of failure, printing each offender
with file and line number.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

# Markdown files whose ```python blocks must execute.
EXECUTABLE_DOCS = ["README.md", "docs"]

# Markdown files whose relative links must resolve.
LINKED_DOCS = ["README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md", "docs"]

SKIP_MARKER = "docs-check: skip"

_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# The catalog: the table under this heading of this file.
CATALOG_DOC = "docs/operations.md"
CATALOG_HEADING = "### Metric catalog"

# Calls whose first argument names a series or span, and what such a
# name looks like (dotted lowercase; ``<op>`` stands for an f-string
# field) — which is what tells ``registry.count("exec.plans")`` from
# ``text.count("(")``.
_EMITTERS = {"count", "gauge", "observe", "span", "_count"}
_SERIES_RE = re.compile(r"^[a-z_]+(\.[a-z_<>]+)+$")


def _markdown_files(entries: List[str]) -> Iterator[Path]:
    for entry in entries:
        path = ROOT / entry
        if path.is_dir():
            yield from sorted(path.glob("*.md"))
        elif path.exists():
            yield path


def iter_python_blocks(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(first_line_number, source)`` for each ```python block."""
    lines = path.read_text(encoding="utf-8").splitlines()
    in_block = False
    skip_next = False
    start = 0
    buffer: List[str] = []
    for number, line in enumerate(lines, start=1):
        match = _FENCE_RE.match(line.strip())
        if not in_block:
            if SKIP_MARKER in line:
                skip_next = True
            elif match and match.group(1) == "python":
                if skip_next:
                    skip_next = False
                else:
                    in_block, start, buffer = True, number + 1, []
            elif match:
                skip_next = False
        elif match:
            in_block = False
            yield start, "\n".join(buffer)
        else:
            buffer.append(line)


def check_examples() -> List[str]:
    """Execute every fenced python block; return failure descriptions."""
    sys.path.insert(0, str(ROOT / "src"))
    failures: List[str] = []
    original_cwd = os.getcwd()
    for path in _markdown_files(EXECUTABLE_DOCS):
        rel = path.relative_to(ROOT)
        for lineno, source in iter_python_blocks(path):
            with tempfile.TemporaryDirectory() as scratch:
                os.chdir(scratch)
                try:
                    exec(compile(source, f"{rel}:{lineno}", "exec"), {})
                    print(f"ok      {rel}:{lineno}")
                except Exception:
                    failures.append(
                        f"{rel}:{lineno}\n{traceback.format_exc()}")
                    print(f"FAILED  {rel}:{lineno}")
                finally:
                    os.chdir(original_cwd)
    return failures


def check_links() -> List[str]:
    """Resolve relative markdown links; return descriptions of dead ones."""
    failures: List[str] = []
    for path in _markdown_files(LINKED_DOCS):
        rel = path.relative_to(ROOT)
        for number, line in enumerate(path.read_text(
                encoding="utf-8").splitlines(), start=1):
            for target in _LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    failures.append(f"{rel}:{number}: dead link -> {target}")
    return failures


def _name_literals(node: ast.AST) -> Iterator[str]:
    """The string(s) an argument expression can evaluate to: a plain
    literal, an f-string (fields rendered ``<expr>``), or either arm
    of a conditional."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, ast.JoinedStr):
        yield "".join(
            part.value if isinstance(part, ast.Constant)
            else f"<{ast.unparse(part.value)}>" for part in node.values)
    elif isinstance(node, ast.IfExp):
        yield from _name_literals(node.body)
        yield from _name_literals(node.orelse)


def emitted_names() -> Set[str]:
    """Every series/span name literal the code under ``src/`` emits."""
    names: Set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            function = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
            if function in _EMITTERS and node.args:
                arguments = [node.args[0]]
            elif function == "SpanRecord":
                arguments = [keyword.value for keyword in node.keywords
                             if keyword.arg == "name"]
            else:
                continue
            names.update(name for argument in arguments
                         for name in _name_literals(argument)
                         if _SERIES_RE.match(name))
    return names


def catalog_names() -> Set[str]:
    """The names in the first column of the metric-catalog table."""
    names: Set[str] = set()
    in_catalog = False
    for line in (ROOT / CATALOG_DOC).read_text(
            encoding="utf-8").splitlines():
        if line.startswith("#"):
            in_catalog = line.strip() == CATALOG_HEADING
        elif in_catalog and line.startswith("|"):
            names.update(name for name in re.findall(
                r"`([^`]+)`", line.split("|")[1])
                if _SERIES_RE.match(name))
    return names


def check_catalog() -> List[str]:
    """Names emitted but undocumented, and documented but not emitted."""
    emitted, documented = emitted_names(), catalog_names()
    return ([f"{CATALOG_DOC}: `{name}` is emitted in src/ but missing"
             f" from the metric catalog"
             for name in sorted(emitted - documented)]
            + [f"{CATALOG_DOC}: the metric catalog lists `{name}`,"
               f" which no code emits"
               for name in sorted(documented - emitted)])


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true",
                        help="check links and the metric catalog only,"
                             " skip executing examples")
    arguments = parser.parse_args(argv)

    link_failures = check_links()
    for failure in link_failures:
        print(failure)
    print(f"links: {'FAILED' if link_failures else 'ok'}")

    catalog_failures = check_catalog()
    for failure in catalog_failures:
        print(failure)
    print(f"metric catalog: {'FAILED' if catalog_failures else 'ok'}")

    example_failures: List[str] = []
    if not arguments.links:
        example_failures = check_examples()
        for failure in example_failures:
            print("\n" + failure)
        print(f"examples: {'FAILED' if example_failures else 'ok'}")

    return 1 if (link_failures or catalog_failures
                 or example_failures) else 0


if __name__ == "__main__":
    raise SystemExit(main())
