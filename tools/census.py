#!/usr/bin/env python3
"""Which functions of a package a command reaches, process tree and all.

    python tools/census.py [--root src/repro] --out RUN.json -- CMD ...
    python tools/census.py [--root src/repro] --split SERVED.json TESTS.json
    python tools/census.py --imports

The first form runs CMD with a ``sys.setprofile`` hook (and
``threading.setprofile`` for new threads) installed in every Python
process it starts: CMD itself, its subprocesses — whatever environment
they are given, so long as it keeps ``PYTHONUSERBASE`` — and the
workers a pool forks or spawns.  The hook rides in through the user
site directory: CMD runs with ``PYTHONUSERBASE`` pointing at a
scratch directory whose ``.pth`` file imports the hook (the real user
site is still added after it).  Each process appends every function
under ROOT to a file the first time it enters it, one write per
function, so a worker that leaves through ``os._exit`` loses nothing
(a forked child appends to its parent's file).  RUN.json gets the
union, and the tool prints, per module, the function-body lines
reached.

A function's body lines run from its ``def`` (or first decorator) to
its last line, docstring included, less the lines of the functions
defined inside it, which count for themselves.  Lambdas and
comprehensions count for the function around them.

``--split`` takes a served run (``benchmarks/macro/run.py --quick``)
and a test run (the tier-1 suite) and prints, per module, the body
lines served, reached only by the tests and reached by neither, then
one ``path:line name (lines)`` line per function reached by neither.

``--imports`` starts a fresh interpreter, imports what a server starts
from (``repro``, ``repro.serve``, ``repro.serve.net``,
``repro.storage.session``, ``repro.shell``) and prints the code lines
(:mod:`code_lines`'s count) of every ``repro`` module that loaded; the
last line is the total.

Stdlib only.  Exits with CMD's status.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import site
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from code_lines import code_lines  # noqa: E402

REPO = Path(__file__).resolve().parent.parent

#: What a server process starts from (``tests/test_import_graph.py``).
SERVING_IMPORTS = ("repro", "repro.serve", "repro.serve.net",
                   "repro.storage.session", "repro.shell")

#: The hook every process of a census run imports at start-up.  It
#: reads its settings from the environment the tool sets.
_HOOK = '''\
import os, sys, threading

def _census():
    root = os.environ["CENSUS_ROOT"]
    out = os.environ["CENSUS_OUT"]
    user_site = os.environ.get("CENSUS_USER_SITE")
    if user_site and os.path.isdir(user_site):
        import site
        site.addsitedir(user_site)
    seen = set()
    under_root = {}
    # Line-buffered append: every line is one write, so nothing waits
    # for an exit, and a forked child appends to the same file.
    log = open(os.path.join(out, "%d.tsv" % os.getpid()), "a",
               buffering=1, encoding="utf-8")

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        name = code.co_filename
        path = under_root.get(name)
        if path is None:
            path = os.path.realpath(name)
            path = under_root[name] = (
                path if path.startswith(root) else "")
        if path:
            log.write("%s\\t%d\\t%s\\n" % (
                path, code.co_firstlineno, code.co_name))

    sys.setprofile(hook)
    threading.setprofile(hook)

_census()
'''


# ----------------------------------------------------------------------
# Running a command under the hook
# ----------------------------------------------------------------------
def run_census(root: Path, command: List[str]) -> Tuple[int, Set[str]]:
    """Run ``command`` with the hook in every process; its exit status
    and the functions reached under ``root`` (``relpath:line``)."""
    root = root.resolve()
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        base = Path(scratch) / "userbase"
        site_dir = Path(sysconfig.get_path(
            "purelib", f"{os.name}_user", vars={"userbase": str(base)}))
        site_dir.mkdir(parents=True)
        (site_dir / "_census_hook.py").write_text(_HOOK, encoding="utf-8")
        (site_dir / "_census.pth").write_text("import _census_hook\n",
                                              encoding="utf-8")
        out = Path(scratch) / "out"
        out.mkdir()
        env = dict(os.environ, PYTHONUSERBASE=str(base),
                   CENSUS_ROOT=str(root) + os.sep, CENSUS_OUT=str(out),
                   CENSUS_USER_SITE=site.getusersitepackages())
        status = subprocess.run(command, env=env).returncode
        reached: Set[str] = set()
        for log in out.iterdir():
            for line in log.read_text(encoding="utf-8").splitlines():
                path, first, _name = line.split("\t")
                relative = Path(path).relative_to(root).as_posix()
                reached.add(f"{relative}:{first}")
    return status, reached


# ----------------------------------------------------------------------
# Function bodies
# ----------------------------------------------------------------------
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def function_lines(source: str) -> Dict[int, Tuple[str, Set[int]]]:
    """Per function of ``source``, keyed by the line its code object
    starts on (the first decorator's, else the ``def``'s): its
    qualified name and its own body lines."""
    found: Dict[int, Tuple[str, Set[int]]] = {}

    def visit(node: ast.AST, prefix: str) -> Set[int]:
        """Record the functions under ``node``; the lines they span."""
        spanned: Set[int] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                lines = set(range(first, child.end_lineno + 1))
                name = prefix + child.name
                found[first] = (name, lines - visit(child, name + "."))
                spanned |= lines
            elif isinstance(child, ast.ClassDef):
                spanned |= visit(child, prefix + child.name + ".")
            else:
                spanned |= visit(child, prefix)
        return spanned

    visit(ast.parse(source), "")
    return found


def package_functions(root: Path) -> Dict[str, Dict[int, Tuple[str, Set[int]]]]:
    """Per module under ``root`` (relative posix path), its functions."""
    return {path.relative_to(root).as_posix():
            function_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def _lines(functions: Dict[int, Tuple[str, Set[int]]],
           keys: Iterable[int]) -> int:
    return sum(len(functions[key][1]) for key in keys)


def _split_reached(reached: Iterable[str]) -> Dict[str, Set[int]]:
    by_module: Dict[str, Set[int]] = {}
    for entry in reached:
        module, first = entry.rsplit(":", 1)
        by_module.setdefault(module, set()).add(int(first))
    return by_module


def print_reached(root: Path, reached: Set[str]) -> None:
    """Per module: the body lines reached of all its body lines."""
    by_module = _split_reached(reached)
    total = hit = 0
    print(f"{'reached':>8} {'of':>6}  module")
    for module, functions in package_functions(root).items():
        keys = by_module.get(module, set()) & functions.keys()
        reached_lines = _lines(functions, keys)
        all_lines = _lines(functions, functions)
        hit += reached_lines
        total += all_lines
        print(f"{reached_lines:8d} {all_lines:6d}  {module}")
    print(f"{hit:8d} {total:6d}  total")


def print_split(root: Path, served: Set[str], tests: Set[str]) -> None:
    """Per module: body lines served / reached only by the tests /
    reached by neither; then every function reached by neither."""
    served_by = _split_reached(served)
    tests_by = _split_reached(tests)
    totals = [0, 0, 0]
    neither: List[str] = []
    print(f"{'served':>7} {'tests':>6} {'neither':>7}  module")
    for module, functions in package_functions(root).items():
        by_serving = served_by.get(module, set()) & functions.keys()
        by_tests = (tests_by.get(module, set()) & functions.keys()) \
            - by_serving
        unreached = sorted(functions.keys() - by_serving - by_tests)
        row = [_lines(functions, by_serving), _lines(functions, by_tests),
               _lines(functions, unreached)]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{row[0]:7d} {row[1]:6d} {row[2]:7d}  {module}")
        neither += [f"{module}:{first} {functions[first][0]}"
                    f" ({len(functions[first][1])})" for first in unreached]
    print(f"{totals[0]:7d} {totals[1]:6d} {totals[2]:7d}  total")
    print("\nreached by neither:")
    for line in neither:
        print(f"  {line}")


# ----------------------------------------------------------------------
# What the serving imports load
# ----------------------------------------------------------------------
def serving_modules(root: Path) -> List[Path]:
    """The files under ``root`` a fresh interpreter loads for
    :data:`SERVING_IMPORTS`."""
    script = ("import json, sys\n"
              f"import {', '.join(SERVING_IMPORTS)}\n"
              "print(json.dumps([getattr(m, '__file__', None)"
              " for m in list(sys.modules.values())]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root.parent)] + ([os.environ["PYTHONPATH"]]
                              if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    files = {Path(name).resolve()
             for name in json.loads(done.stdout.splitlines()[-1]) if name}
    return sorted(path for path in files if root in path.parents)


def print_imports(root: Path) -> None:
    total = 0
    for path in serving_modules(root):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root.parent).as_posix()}")
    print(f"{total:6d}  total")


def main(argv: List[str]) -> int:
    command: List[str] = []
    if "--" in argv:
        at = argv.index("--")
        argv, command = argv[:at], argv[at + 1:]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=REPO / "src" / "repro",
                        help="the package whose functions are counted")
    parser.add_argument("--out", type=Path,
                        help="where a run writes the functions it reached")
    parser.add_argument("--split", nargs=2, type=Path,
                        metavar=("SERVED", "TESTS"))
    parser.add_argument("--imports", action="store_true")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.imports:
        print_imports(root)
        return 0
    if args.split:
        served, tests = (set(json.loads(path.read_text())["reached"])
                         for path in args.split)
        print_split(root, served, tests)
        return 0
    if not command:
        parser.error("give a command after --, or --split / --imports")
    status, reached = run_census(root, command)
    if args.out:
        args.out.write_text(json.dumps(
            {"command": command, "status": status,
             "reached": sorted(reached)}, indent=0) + "\n")
    print_reached(root, reached)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
