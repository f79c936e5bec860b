#!/usr/bin/env python3
"""Count the lines of Python that hold code.

A line holds code when some token on it is not a comment, and it is
not part of a docstring (the first statement of a module, class or
function body, when that statement is a string).  Blank lines,
comment-only lines and docstrings are what a diff can grow without
growing the program; this count is what a simplification must shrink.

Run:  python tools/code_lines.py [PATH ...]       # default: src
Prints one ``count  path`` line per ``.py`` file under each PATH, in
path order, then ``count  total``.  Stdlib only (``ast`` + ``tokenize``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Set

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers every docstring in ``tree`` spans."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code."""
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths: List[str]) -> Iterator[Path]:
    for entry in paths:
        path = Path(entry)
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: List[str]) -> int:
    total = 0
    for path in python_files(argv or ["src"]):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
