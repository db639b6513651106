"""numpy is loaded only by the batched floating-point code, and no command
loads dataclasses or inspect, slow imports that the package does not
need."""

import importlib
import subprocess
import sys
from importlib import resources

import pytest

import toricfloer

from conftest import CORPUS

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


def test_finishing_rules_load_no_numpy():
    # the dedup, the sort key and the CriticalPoint record are plain
    # Python; only the batched search in mirror imports numpy, on use
    got = run_python("import sys, toricfloer.solve, toricfloer.mirror; "
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
             ["balanced", path], ["balanced", path, "--mode", "holonomy"],
             ["critical", path]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--json"])
    loaded(code)
for module in pkgutil.iter_modules(sys.modules["toricfloer"].__path__):
    importlib.import_module("toricfloer." + module.name)
loaded("all")
"""
    got = run_python(code, path)
    # the pure-Python Newton pass settles critical and holonomy mode on p2
    assert got[:28] == ["import", "False", "False", "False"] + [
        "0", "False", "False", "False"] * 6
    # numpy itself loads inspect; no toricfloer module loads dataclasses
    assert got[28:31] == ["all", "True", "False"]


MIRROR_COMMANDS = """
import contextlib, io, sys
from toricfloer import cli

codes = []
for path in sys.argv[1:]:
    for command in (["critical"], ["balanced", "--mode", "holonomy"]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(command + [path, "--json"]))
print(*codes, "numpy" in sys.modules)
"""


def test_corpus_mirror_commands_load_no_numpy():
    paths = [str(resources.files("toricfloer") / "data" / "polytopes"
                 / f"{name}.poly") for name in CORPUS]
    assert run_python(MIRROR_COMMANDS, *paths) == ["0"] * 14 + ["False"]


def test_fallback_search_loads_numpy(tmp_path):
    # the pass finds 6 of this 3-fold's 11 points, so the batched search
    # runs after it
    path = tmp_path / "planted.poly"
    path.write_text("dim 3\nnormal -1 0 0 offset -6\nnormal 0 1 1 offset -6\n"
                    "normal 1 -1 -1 offset -6\nnormal -1 0 -1 offset -5/2\n"
                    "normal -1 1 -1 offset -8\nnormal 1 -1 0 offset 1/2\n")
    assert run_python(MIRROR_COMMANDS, str(path)) == ["0", "0", "True"]


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
