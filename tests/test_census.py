"""``tools/census.py``: which functions a command's processes reach.

A toy package stands in for ``src/repro``: its entry point calls one
function itself, one through a method's nested function, one in a
subprocess started without ``PYTHONPATH`` (as the macro benchmark
starts its server) and one in a forked child that leaves through
``os._exit`` (as a pool worker does); one function nobody calls.
"""

import json
import os
import site
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import census  # noqa: E402

TOY = textwrap.dedent('''\
    import os
    import subprocess
    import sys


    def used():
        return 1


    def unused():
        return 2


    def in_child():
        return 3


    def in_fork():
        return 4


    class Thing:
        @staticmethod
        def method():
            def inner():
                return 5
            return inner()


    def main():
        used()
        Thing.method()
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {here!r});"
                        " import toy.mod; toy.mod.in_child()"],
                       env=env, check=True)
        if hasattr(os, "fork"):
            pid = os.fork()
            if pid == 0:
                in_fork()
                os._exit(0)
            os.waitpid(pid, 0)
    ''')


@pytest.fixture()
def toy(tmp_path, monkeypatch):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    return package


def _first_lines(package: Path) -> dict:
    """Qualified name -> the line its code object starts on."""
    functions = census.function_lines((package / "mod.py").read_text())
    return {name: first for first, (name, _lines) in functions.items()}


class TestFunctionLines:
    def test_nested_lines_count_for_the_nested_function(self, toy):
        functions = census.function_lines((toy / "mod.py").read_text())
        by_name = {name: lines for name, lines in functions.values()}
        assert not by_name["Thing.method"] & by_name["Thing.method.inner"]
        # The decorator line is the method's first line.
        first = _first_lines(toy)["Thing.method"]
        assert first in by_name["Thing.method"]
        assert TOY.splitlines()[first - 1].strip() == "@staticmethod"
        assert len(by_name["used"]) == 2


@pytest.mark.skipif(not site.ENABLE_USER_SITE,
                    reason="the hook rides in through the user site")
class TestRun:
    def test_every_process_of_the_tree_is_counted(self, toy, tmp_path,
                                                  capsys):
        out = tmp_path / "run.json"
        status = census.main(["--root", str(toy), "--out", str(out), "--",
                              sys.executable, "-c",
                              "import toy.mod; toy.mod.main()"])
        assert status == 0
        reached = set(json.loads(out.read_text())["reached"])
        first = _first_lines(toy)
        expected = {"used", "in_child", "Thing.method",
                    "Thing.method.inner", "main"}
        if hasattr(os, "fork"):
            expected.add("in_fork")
        assert {name for name, line in first.items()
                if f"mod.py:{line}" in reached} == expected
        assert capsys.readouterr().out.splitlines()[-1].split()[-1] \
            == "total"

    def test_the_command_status_is_the_exit_status(self, toy):
        assert census.main(["--root", str(toy), "--", sys.executable,
                            "-c", "raise SystemExit(3)"]) == 3


class TestSplit:
    def test_served_tests_only_and_neither(self, toy, tmp_path, capsys):
        first = _first_lines(toy)
        runs = []
        for name, functions in (("served", ["main", "used"]),
                                ("tests", ["used", "in_child"])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"reached": [
                f"mod.py:{first[function]}" for function in functions]}))
            runs.append(str(path))
        census.main(["--root", str(toy), "--split"] + runs)
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if line.endswith("  mod.py"))
        served, tests, neither = (int(cell) for cell in row.split()[:3])
        functions = census.function_lines((toy / "mod.py").read_text())
        size = {name: len(lines) for name, lines in functions.values()}
        assert served == size["main"] + size["used"]
        assert tests == size["in_child"]
        assert neither == sum(size.values()) - served - tests
        unreached = out.split("reached by neither:")[1]
        assert f"mod.py:{first['unused']} unused (2)" in unreached
        assert "mod.py:%d used " % first["used"] not in unreached


class TestImports:
    def test_serving_imports_leave_the_references_out(self, capsys):
        census.main(["--imports"])
        lines = capsys.readouterr().out.splitlines()
        total, label = lines[-1].split()
        assert label == "total"
        modules = {line.split()[1] for line in lines[:-1]}
        assert "repro/db.py" in modules
        assert not modules & {"repro/rules/engine.py",
                              "repro/query/evaluate.py",
                              "repro/browse/hierarchy.py"}
        assert int(total) == sum(int(line.split()[0])
                                 for line in lines[:-1])
