import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from toricfloer import _exact, lattice
from toricfloer import report as rep
from toricfloer.cli import main

from conftest import CORPUS, DATA, corpus_text

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


@pytest.fixture
def fan_calls(monkeypatch):
    """The polytopes that lattice.normal_fan is called on."""
    calls = []
    normal_fan = lattice.normal_fan

    def counted(p):
        calls.append(p)
        return normal_fan(p)

    monkeypatch.setattr(lattice, "normal_fan", counted)
    return calls


def test_dumps_refuses_records():
    assert rep.dumps({"a": (1, [2.5, None])}) == '{"a": [1, [2.5, null]]}\n'
    # a record is a tuple subclass, but has no JSON form
    with pytest.raises(TypeError, match="unserializable"):
        rep.dumps({"cone": lattice.Cone((0, 1))})
    with pytest.raises(TypeError, match="unserializable"):
        rep.dumps({"fans": [lattice.normal_fan(
            lattice.parse_polytope(corpus_text("p2")))]})


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

    def test_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "utf16.poly"
        bad.write_bytes(b"\xff\xfe" + "dim 1\n".encode("utf-16-le"))
        code, out, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 2
        assert err.startswith(f"error: {bad}: ") and "utf-8" in err
        assert out == ""

    def test_non_convergence_emits_report(self, monkeypatch, capsys):
        from toricfloer import mirror
        monkeypatch.setattr(mirror, "critical_points", lambda w, p: [])
        code, out, err = run_cli(["critical", poly_path("p2"), "--json"],
                                 capsys)
        assert code == 3
        assert err == "error: no critical point converged\n"
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["critical"]["count"] == 0
        assert doc["critical"]["kushnirenko_count"] == 3

    def test_boundary_fiber(self, capsys):
        code, _, err = run_cli(
            ["hf", poly_path("p2"), "--fiber", "0,3"], capsys)
        assert code == 2
        assert "singular" in err

    def test_bad_fiber_arity(self, capsys):
        code, _, err = run_cli(
            ["hf", poly_path("p2"), "--fiber", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("json_flag", ([], ["--json"]))
    @pytest.mark.parametrize("angles", ("nan,0", "inf,0"))
    def test_non_finite_holonomy(self, angles, json_flag, capsys):
        code, out, err = run_cli(
            ["hf", poly_path("p2"), "--fiber", "3,3",
             f"--holonomy={angles}", *json_flag], capsys)
        assert code == 2
        assert f"bad holonomy angles '{angles}'" in err
        assert out == ""

    @pytest.mark.parametrize("args", (["balanced"],
                                      ["balanced", "--mode", "holonomy"],
                                      ["critical"]))
    def test_partition_limit(self, args, tmp_path, capsys):
        # P^12 has 13 facets, one more than the zero-sum subset scan of
        # novikov mode takes; holonomy mode and critical run Newton, whose
        # starts are over its entry limit in dimension 12
        lines = ["dim 12"]
        for i in range(12):
            lines.append("normal " + " ".join(
                "1" if j == i else "0" for j in range(12)) + " offset 0")
        lines.append("normal " + " ".join(["-1"] * 12) + " offset -13")
        big = tmp_path / "p12.poly"
        big.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli([args[0], str(big), *args[1:]], capsys)
        assert code == 2
        if args == ["balanced"]:
            assert "limited to 12 facets" in err and "has 13" in err
        else:
            assert "limited to 40960000 Hessian entries" in err
            assert "the 2x4 grid in dimension 12" in err

    @pytest.mark.parametrize("k", (7, 8))
    def test_newton_start_limit(self, k, tmp_path, capsys):
        # (P^1)^k has 2^k vertices, so the 2 x 4 grid holds
        # (2^k + 1) 4^k starts' k x k Hessians, over the limit for k > 6
        lines = [f"dim {k}"]
        for i in range(k):
            for sign, offset in ((1, 0), (-1, -1)):
                lines.append("normal " + " ".join(
                    str(sign) if j == i else "0" for j in range(k))
                    + f" offset {offset}")
        path = tmp_path / "p1k.poly"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["critical", str(path)], capsys)
        assert code == 2
        assert "limited to 40960000 Hessian entries" in err
        starts = (2 ** k + 1) * 4 ** k
        assert (f"the 2x4 grid in dimension {k} needs {starts} starts, "
                f"{starts * k * k} entries") in err

    def test_superpotential_overflow(self, tmp_path, capsys):
        # the critical points of W sit at the centre, where every exponent
        # of W is -1000 and W itself underflows; W e^-c does not
        path = tmp_path / "big.poly"
        path.write_text("dim 1\nnormal 1 offset 0\nnormal -1 offset -2000\n")
        code, out, _ = run_cli(["critical", str(path), "--json"], capsys)
        assert code == 0
        r = json.loads(out)
        assert r["warnings"] == []
        points = r["critical"]["points"]
        assert len(points) == 2
        for pt in points:
            assert pt["theta_re"] == pytest.approx([1000], abs=1e-9)
            assert not pt["degenerate"]

    def test_critical_enumerates_vertices_once(self, monkeypatch, capsys):
        calls = []
        enumerate_vertices = lattice._enumerate_vertices

        def counted(p):
            calls.append(p)
            return enumerate_vertices(p)

        monkeypatch.setattr(lattice, "_enumerate_vertices", counted)
        code, _, _ = run_cli(["critical", poly_path("p2"), "--json"], capsys)
        assert code == 0 and len(calls) == 1

    def test_library_builds_fan_once(self, fan_calls):
        from toricfloer.floer import balanced_fibers_novikov, hf_rank
        from toricfloer.discs import FiberPoint
        from toricfloer.mirror import (build_superpotential, critical_points,
                                       holonomy_balanced)

        p = lattice.parse_polytope(corpus_text("p2"))
        rep.base_report("analyze", p)
        assert hf_rank(p, FiberPoint.rational(3, 3)) == 4
        assert len(balanced_fibers_novikov(p)) == 1
        sols, _ = holonomy_balanced(
            p, critical_points(build_superpotential(p), p))
        assert len(sols) == 3
        assert fan_calls == [p]

    @pytest.mark.parametrize("name", ("p2", "f2"))
    @pytest.mark.parametrize("form", (
        ["analyze"], ["hf", "--fiber", "1,1"],
        ["hf", "--fiber", "1,1", "--coefficients", "exp"], ["balanced"],
        ["balanced", "--mode", "holonomy"], ["critical"]),
        ids=lambda form: "-".join(form).replace("--", ""))
    def test_cli_builds_fan_once(self, fan_calls, capsys, name, form):
        for js in ([], ["--json"]):
            fan_calls.clear()
            code, _, _ = run_cli([form[0], poly_path(name), *form[1:], *js],
                                 capsys)
            assert code == 0 and len(fan_calls) == 1

    @pytest.mark.parametrize("coefficients, want", (("novikov", 4),
                                                    ("exp", 6)))
    def test_hf_evaluates_ell_once_per_stage(self, monkeypatch, capsys,
                                             coefficients, want):
        # the centroid check, the interior check whose list gives the disc
        # areas, delta2 and hf_rank; the exp weight adds one per delta2 test
        calls = []
        ell = lattice.Polytope.ell

        def counted(p, x):
            calls.append(x)
            return ell(p, x)

        monkeypatch.setattr(lattice.Polytope, "ell", counted)
        code, _, _ = run_cli(["hf", poly_path("f1"), "--fiber", "0,0",
                              "--coefficients", coefficients, "--json"],
                             capsys)
        assert code == 0 and len(calls) == want

    def test_fan_tests_read_the_vertex_pass(self, monkeypatch):
        fans = [lattice.normal_fan(lattice.parse_polytope(corpus_text(name)))
                for name in ("p2", "p1xp1")]
        calls = []
        for name in ("solve", "inverse", "rank", "integer_kernel"):
            def counted(*args, _name=name, _real=getattr(_exact, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(_exact, name, counted)
        for f in fans:
            assert lattice.is_smooth(f) and lattice.is_fano(f)
            for sigma in f.max_cones:
                lattice.chart_exponents(f, sigma)
        assert calls == []


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
        assert ("critical points: 2 (Kushnirenko count 2, Euler "
                "characteristic 2)") in out

    @pytest.mark.parametrize("args", (["critical"],
                                      ["balanced", "--mode", "holonomy"]))
    def test_rank_one_hessian(self, args, tmp_path, capsys):
        # from the corner starts of P^2 of side 21 one weight dominates and
        # the Hessian is rank one to working precision
        path = tmp_path / "p2_21.poly"
        path.write_text("dim 2\nnormal 1 0 offset 0\nnormal 0 1 offset 0\n"
                        "normal -1 -1 offset -21\n")
        code, out, _ = run_cli([args[0], str(path), *args[1:]], capsys)
        assert code == 0
        assert ("critical points: 3 (" if args[0] == "critical"
                else "balanced fibers (holonomy mode): 3") in out

    NON_FANO = "non-Fano fan: balanced-fiber results are conjectural"
    UNSUPPORTED = ("unsupported regime: Floer vanishing criterion requires "
                   "a smooth Fano fan")

    @pytest.mark.parametrize("args, want", (
        (["analyze", "f3"], []),
        (["balanced", "f3"], [NON_FANO]),
        (["balanced", "f3", "--mode", "holonomy"], [NON_FANO]),
        (["critical", "f3"], [NON_FANO]),
        (["hf", "f2", "--fiber", "1,1"], [UNSUPPORTED]),
        (["hf", "f2", "--fiber", "1,1", "--coefficients", "exp"],
         [UNSUPPORTED]),
    ))
    def test_warnings_on_repeated_runs(self, args, want, capsys):
        # main runs many times in one process; each report holds all of
        # its warnings, not only the first run's
        argv = [args[0], poly_path(args[1]), *args[2:], "--json"]
        first, second = (run_cli(argv, capsys) for _ in range(2))
        assert first == second
        warns = json.loads(first[1])["warnings"]
        assert len(warns) == len(want)
        assert all(w.startswith(prefix) for w, prefix in zip(warns, want))

    @pytest.mark.parametrize("name", ("f1", "f3"))
    def test_critical_prints_plain_floats(self, name, capsys):
        code, out, _ = run_cli(["critical", poly_path(name)], capsys)
        assert code == 0
        assert "Re Theta [" in out and "np.float64" not in out


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
        # the child imports the same checkout as this test run
        src = os.path.dirname(os.path.dirname(lattice.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
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

# the inputs in tests/data and their hf fibers: (P^2)^4 with rational
# offsets at its balanced fiber, where HF has rank 2^8; Bl_1P^2 x P^2 x P^2,
# whose coordinate frame violates x + y >= 5/2, at a rational interior fiber
DATA_FIBERS = {"p2x4": "53/12,29/12,-3/2,-1/2,29/6,-11/12,-2/3,13/3",
               "bl1p2xp2xp2": "5/4,17/4,7/3,-1/3,4/5,59/15"}


# hf with holonomy, on the floating-point delta2 path in both coefficient
# modes: (polytope, fiber, holonomy) for tests/data/{name}_hf_holonomy*.json
HOLONOMY_FIBERS = {"p2": ("1,3", "3.141592653589793,0"),
                   "f1": ("0,0", "1.5,1.5")}


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

    @pytest.mark.parametrize("name", CORPUS)
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

    @pytest.mark.parametrize("coefficients", ("novikov", "exp"))
    @pytest.mark.parametrize("name", HOLONOMY_FIBERS)
    def test_hf_holonomy_golden(self, name, coefficients, capsys):
        fiber, holonomy = HOLONOMY_FIBERS[name]
        code, out, _ = run_cli(
            ["hf", poly_path(name), "--fiber", fiber, "--holonomy", holonomy,
             "--coefficients", coefficients, "--json"], capsys)
        assert code == 0
        suffix = "" if coefficients == "novikov" else "_exp"
        assert out == (DATA / f"{name}_hf_holonomy{suffix}.json").read_text()

    @pytest.mark.parametrize("command", ("analyze", "balanced", "hf"))
    @pytest.mark.parametrize("name", DATA_FIBERS)
    def test_dimension_8_golden(self, name, command, capsys):
        # the exact layer in dimensions 8 and 6
        fiber = ["--fiber=" + DATA_FIBERS[name]] if command == "hf" else []
        code, out, _ = run_cli([command, str(DATA / f"{name}.poly"), *fiber,
                                "--json"], capsys)
        assert code == 0
        assert out == (DATA / f"{name}_{command}.json").read_text()

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
