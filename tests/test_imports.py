"""numpy is loaded only by the code that computes in floating point."""

import importlib
import subprocess
import sys
from importlib import resources

import pytest

import toricfloer

SRC = str(resources.files("toricfloer").parent)


def run_python(code: str, *args: str) -> list[str]:
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env={"PYTHONPATH": SRC}, capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def test_bare_import_loads_no_numpy():
    got = run_python("import sys, toricfloer; "
                     "print('numpy' in sys.modules)")
    assert got == ["False"]


def test_exact_commands_load_no_numpy():
    path = str(resources.files("toricfloer") / "data" / "polytopes"
               / "p2.poly")
    code = """
import contextlib, io, sys
from toricfloer import cli
path = sys.argv[1]
for argv in (["analyze", path], ["hf", path, "--fiber", "3,3"],
             ["hf", path, "--fiber", "1,2", "--coefficients", "exp"],
             ["balanced", path], ["critical", path]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--json"])
    print(code, "numpy" in sys.modules)
"""
    got = run_python(code, path)
    assert got == ["0", "False"] * 4 + ["0", "True"]


def test_all_names_resolve_to_their_submodule():
    for name in toricfloer.__all__:
        obj = getattr(toricfloer, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("toricfloer.")
        assert getattr(module, name) is obj, name


def test_star_import_gives_all():
    ns: dict = {}
    exec("from toricfloer import *", ns)
    assert sorted(k for k in ns if k != "__builtins__") == sorted(
        toricfloer.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        toricfloer.no_such_name
