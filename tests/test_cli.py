import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from toricfloer import lattice
from toricfloer import report as rep
from toricfloer.cli import main

from conftest import CORPUS, corpus_text

SCHEMA = json.loads(
    (resources.files("toricfloer") / "data" / "report.schema.json")
    .read_text())


def poly_path(name: str) -> str:
    return str(resources.files("toricfloer") / "data" / "polytopes"
               / f"{name}.poly")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_analyze_ok(self, capsys):
        code, out, _ = run_cli(["analyze", poly_path("p2")], capsys)
        assert code == 0
        assert "chi=3" in out and "fano=True" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["analyze", "/nonexistent.poly"], capsys)
        assert code == 2
        assert "error" in err

    def test_bad_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.poly"
        bad.write_text("dim 2\nnormal 2 0 offset 0\n"
                       "normal 0 1 offset 0\nnormal -1 -1 offset -1\n")
        code, _, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 2
        assert f"{bad}:2" in err and "non-primitive" in err

    def test_boundary_fiber(self, capsys):
        code, _, err = run_cli(
            ["hf", poly_path("p2"), "--fiber", "0,3"], capsys)
        assert code == 2
        assert "singular" in err

    def test_bad_fiber_arity(self, capsys):
        code, _, err = run_cli(
            ["hf", poly_path("p2"), "--fiber", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args", (["balanced"],
                                      ["balanced", "--mode", "holonomy"],
                                      ["critical"]))
    def test_partition_limit(self, args, tmp_path, capsys):
        # P^12 has 13 facets, one more than set-partition enumeration takes
        lines = ["dim 12"]
        for i in range(12):
            lines.append("normal " + " ".join(
                "1" if j == i else "0" for j in range(12)) + " offset 0")
        lines.append("normal " + " ".join(["-1"] * 12) + " offset -13")
        big = tmp_path / "p12.poly"
        big.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli([args[0], str(big), *args[1:]], capsys)
        assert code == 2
        assert "limited to 12 facets" in err and "has 13" in err

    @pytest.mark.parametrize("k", (5, 7))
    def test_newton_start_limit(self, k, tmp_path, capsys):
        # (P^1)^k needs 5^k x 8^k Newton starts, over the limit for k > 4
        lines = [f"dim {k}"]
        for i in range(k):
            for sign, offset in ((1, 0), (-1, -1)):
                lines.append("normal " + " ".join(
                    str(sign) if j == i else "0" for j in range(k))
                    + f" offset {offset}")
        path = tmp_path / "p1k.poly"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["critical", str(path), "--no-match"], capsys)
        assert code == 2
        assert "limited to 2560000 Newton starts" in err
        assert f"needs {5 ** k * 8 ** k}" in err

    def test_critical_enumerates_vertices_once(self, monkeypatch, capsys):
        calls = []
        enumerate_vertices = lattice._enumerate_vertices

        def counted(p):
            calls.append(p)
            return enumerate_vertices(p)

        monkeypatch.setattr(lattice, "_enumerate_vertices", counted)
        code, _, _ = run_cli(["critical", poly_path("p2"), "--json"], capsys)
        assert code == 0 and len(calls) == 1


class TestCommands:
    def test_hf_rank_line(self, capsys):
        code, out, _ = run_cli(
            ["hf", poly_path("p2"), "--fiber", "3,3"], capsys)
        assert code == 0 and "HF rank (novikov coefficients): 4" in out
        code, out, _ = run_cli(
            ["hf", poly_path("p2"), "--fiber", "1,3"], capsys)
        assert code == 0 and "HF rank (novikov coefficients): 0" in out

    def test_hf_exp_mode(self, capsys):
        code, out, _ = run_cli(
            ["hf", poly_path("p2"), "--fiber", "3,3",
             "--coefficients", "exp"], capsys)
        assert code == 0 and "HF rank (exp coefficients): 4" in out

    def test_non_fano_warns(self, capsys):
        code, out, _ = run_cli(
            ["balanced", poly_path("f3"), "--mode", "novikov"], capsys)
        assert code == 0
        assert "non-Fano" in out

    def test_hf_non_fano_unsupported(self, capsys):
        code, out, _ = run_cli(
            ["hf", poly_path("f2"), "--fiber", "1,1"], capsys)
        assert code == 0
        assert "unsupported regime" in out
        assert "HF rank (novikov coefficients): None" in out

    def test_balanced_p2(self, capsys):
        code, out, _ = run_cli(["balanced", poly_path("p2")], capsys)
        assert code == 0
        assert "balanced fibers (novikov mode): 1" in out
        assert "Clifford torus" in out

    def test_critical_p1(self, capsys):
        code, out, _ = run_cli(["critical", poly_path("p1")], capsys)
        assert code == 0
        assert "critical points: 2 (Euler characteristic 2)" in out


class TestJson:
    @pytest.mark.parametrize("name", CORPUS)
    def test_analyze_schema(self, name, capsys):
        code, out, _ = run_cli(["analyze", poly_path(name), "--json"], capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_hf_schema(self, capsys):
        _, out, _ = run_cli(
            ["hf", poly_path("f1"), "--fiber", "1/5,2/5", "--json"], capsys)
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["hf"]["rank"] == 0
        assert doc["hf"]["fiber"] == ["1/5", "2/5"]

    def test_balanced_schema(self, capsys):
        _, out, _ = run_cli(
            ["balanced", poly_path("p1xp1"), "--mode", "holonomy", "--json"],
            capsys)
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert len(doc["balanced"]["solutions"]) == 4

    def test_critical_schema(self, capsys):
        _, out, _ = run_cli(["critical", poly_path("p2"), "--json"], capsys)
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["critical"]["count"] == 3
        assert all(cp["matched_balanced"] is not None
                   for cp in doc["critical"]["points"])

    def test_byte_identical(self):
        env = dict(os.environ)
        runs = [subprocess.run(
            [sys.executable, "-m", "toricfloer.cli", "balanced",
             poly_path("p2"), "--mode", "holonomy", "--json"],
            capture_output=True, env=env) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    def test_float_formatting(self):
        from fractions import Fraction
        assert rep.format_float(1 / 3) == "0.33333333333333331"
        assert rep.format_rational(Fraction(3)) == "3"
        assert rep.format_rational(Fraction(-7, 2)) == "-7/2"


# exact rational fibers for the hf goldens: the vertex centroid of each
# corpus polytope
HF_FIBERS = {"p1": "1", "p2": "3,3", "p3": "1,1,1", "p1xp1": "1,1",
             "f1": "0,0", "f2": "3/2,1", "f3": "2,1"}


def golden(name: str) -> str:
    return (resources.files("toricfloer") / "data" / "golden"
            / f"{name}.json").read_text()


def assert_report_close(got, want, path="$"):
    """Equal structure, strings, flags and nulls; numbers within 1e-9,
    which keeps counts and indices exact."""
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), \
            path
        assert abs(got - want) <= 1e-9, (path, got, want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_close(g, w, f"{path}[{i}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for k in want:
            assert_report_close(got[k], want[k], f"{path}.{k}")
    else:
        assert got == want, (path, got, want)


class TestGolden:
    @pytest.mark.parametrize("name", CORPUS)
    def test_analyze_golden(self, name, capsys):
        code, out, _ = run_cli(["analyze", poly_path(name), "--json"], capsys)
        assert code == 0
        assert out == golden(name + "_analyze")

    @pytest.mark.parametrize("name", ("p2", "p1xp1", "f1"))
    def test_balanced_golden(self, name, capsys):
        code, out, _ = run_cli(["balanced", poly_path(name), "--json"],
                               capsys)
        assert code == 0
        assert out == golden(name + "_balanced")

    @pytest.mark.parametrize("coefficients", ("novikov", "exp"))
    @pytest.mark.parametrize("name", CORPUS)
    def test_hf_golden(self, name, coefficients, capsys):
        code, out, _ = run_cli(
            ["hf", poly_path(name), "--fiber", HF_FIBERS[name],
             "--coefficients", coefficients, "--json"], capsys)
        assert code == 0
        suffix = "_hf" if coefficients == "novikov" else "_hf_exp"
        assert out == golden(name + suffix)

    @pytest.mark.parametrize("name", CORPUS)
    def test_holonomy_golden(self, name, capsys):
        code, out, _ = run_cli(
            ["balanced", poly_path(name), "--mode", "holonomy", "--json"],
            capsys)
        assert code == 0
        assert_report_close(json.loads(out),
                            json.loads(golden(name + "_holonomy")))

    @pytest.mark.parametrize("name", CORPUS)
    def test_critical_golden(self, name, capsys):
        code, out, _ = run_cli(["critical", poly_path(name), "--json"],
                               capsys)
        assert code == 0
        assert_report_close(json.loads(out),
                            json.loads(golden(name + "_critical")))
