"""numpy is loaded only by the code that computes in floating point, and
no command loads dataclasses or inspect, slow imports that the package
does not need."""

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
import contextlib, importlib, io, pkgutil, sys
from toricfloer import cli

def loaded(step):
    print(step, *(m in sys.modules for m in ("numpy", "dataclasses",
                                             "inspect")))

loaded("import")
path = sys.argv[1]
for argv in (["analyze", path], ["hf", path, "--fiber", "3,3"],
             ["hf", path, "--fiber", "1,2", "--coefficients", "exp"],
             ["balanced", path], ["critical", path]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--json"])
    loaded(code)
for module in pkgutil.iter_modules(sys.modules["toricfloer"].__path__):
    importlib.import_module("toricfloer." + module.name)
loaded("all")
"""
    got = run_python(code, path)
    assert got[:20] == ["import", "False", "False", "False"] + [
        "0", "False", "False", "False"] * 4
    # numpy itself loads inspect; no toricfloer module loads dataclasses
    assert got[20:23] == ["0", "True", "False"]
    assert got[24:27] == ["all", "True", "False"]


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
