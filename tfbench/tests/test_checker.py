"""The checker accepts toricfloer's reports and rejects corrupted ones.

Reports are produced here by running the CLI on benchmark inputs, then
corrupted one field at a time; each corruption must be caught.

    python3 -m pytest tfbench/tests -q
"""

import contextlib
import copy
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import cases
import checker
from toricfloer import cli

CORPUS = {c.name: c for c in cases.corpus_cases()}


def run(op: cases.Op) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(op.argv) == 0
    return json.loads(buf.getvalue())


def errors(op, report) -> list[str]:
    return checker.check_report(op, json.dumps(report))


@pytest.fixture(scope="module")
def family(tmp_path_factory):
    return {c.name: c for c in
            cases.family_cases(7, tmp_path_factory.mktemp("family"))}


def test_kushnirenko_counts_of_the_corpus():
    got = {name: checker.kushnirenko(c.normals) for name, c in CORPUS.items()}
    assert got == {"p1": 2, "p2": 3, "p3": 4, "p1xp1": 4, "f1": 4, "f2": 4,
                   "f3": 5}
    # the unit cube and the cross-polytope in dimension 3
    assert checker.normalized_volume(
        list(itertools.product((0, 1), repeat=3))) == 6
    cross = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
             (0, 0, -1)]
    assert checker.normalized_volume(cross) == 8


def test_critical_point_dropped():
    op = cases.Op(CORPUS["p2"], "critical")
    r = run(op)
    assert errors(op, r) == []
    bad = copy.deepcopy(r)
    bad["critical"]["points"].pop(1)
    bad["critical"]["count"] -= 1
    assert any("Kushnirenko" in e for e in errors(op, bad))


def test_critical_point_not_critical():
    op = cases.Op(CORPUS["f1"], "critical")
    r = run(op)
    assert errors(op, r) == []
    bad = copy.deepcopy(r)
    bad["critical"]["points"][0]["theta_re"][0] += 1e-3
    assert any("grad W" in e for e in errors(op, bad))


def test_holonomy_moved():
    op = cases.Op(CORPUS["p2"], "balanced", ("--mode", "holonomy"))
    r = run(op)
    assert errors(op, r) == []
    bad = copy.deepcopy(r)
    bad["balanced"]["solutions"][1]["holonomy"][0] += 1e-3
    assert any("not in the closed form" in e for e in errors(op, bad))


def test_holonomy_solution_on_hirzebruch():
    op = cases.Op(CORPUS["f1"], "balanced", ("--mode", "holonomy"))
    r = run(op)
    assert errors(op, r) == []
    bad = copy.deepcopy(r)
    bad["balanced"]["solutions"].append(
        {"point": [0.0, 0.0], "exact": False, "holonomy": [0.0, 0.0],
         "partition": [[0, 1, 2, 3]], "levels": [1.0], "residual": 0.0})
    assert any("closed form has 0" in e for e in errors(op, bad))


def test_wrong_chi(family):
    op = cases.Op(family["bl1p2xp2xp2"], "analyze")
    r = run(op)
    assert errors(op, r) == []
    bad = copy.deepcopy(r)
    bad["fan"]["euler_characteristic"] += 1
    assert any(e.endswith("!= 36") for e in errors(op, bad))


def test_kernel_row_not_a_relation(family):
    op = cases.Op(family["p2^3xp1"], "analyze")
    r = run(op)
    assert errors(op, r) == []
    bad = copy.deepcopy(r)
    bad["kernel"]["basis"][0][0] += 1
    assert any("Q.V" in e for e in errors(op, bad))


def test_novikov_balanced_of_products(family):
    op = cases.Op(family["p3xp3xp1xp1"], "balanced")
    r = run(op)
    assert errors(op, r) == []
    bad = copy.deepcopy(r)
    bad["balanced"]["solutions"] = []
    assert errors(op, bad)
    op = cases.Op(family["f1xp2xp1xp1"], "balanced")
    assert errors(op, run(op)) == []


@pytest.mark.parametrize("coefficients", ["novikov", "exp"])
def test_hf_rank(coefficients):
    case = CORPUS["p1xp1"]
    opts = ("--coefficients", coefficients)
    at_balanced = cases.Op(case, "hf", opts, fiber=(Fraction(1), Fraction(1)))
    elsewhere = cases.Op(case, "hf", opts,
                         fiber=(Fraction(1, 2), Fraction(1)))
    for op, rank in ((at_balanced, 4), (elsewhere, 0)):
        r = run(op)
        assert r["hf"]["rank"] == rank
        assert errors(op, r) == []
        bad = copy.deepcopy(r)
        bad["hf"]["rank"] = 4 - rank
        assert any("hf rank" in e for e in errors(op, bad))


def test_hf_non_fano_has_no_rank():
    op = cases.Op(CORPUS["f3"], "hf", fiber=(Fraction(1), Fraction(1, 2)))
    r = run(op)
    assert errors(op, r) == []
    bad = copy.deepcopy(r)
    bad["hf"]["rank"] = 0
    assert errors(op, bad)


def test_schema_violation():
    op = cases.Op(CORPUS["p1"], "analyze")
    bad = run(op)
    del bad["kernel"]
    assert any("schema" in e for e in errors(op, bad))


def test_oracle_candidates():
    case = CORPUS["p1xp1"]
    expect = checker.holonomy_closed_form(case)
    assert len(expect) == 4
    assert checker.check_oracle(case, expect) == []
    moved = [(a, (nu[0] + 1e-3, nu[1])) if i == 2 else (a, nu)
             for i, (a, nu) in enumerate(expect)]
    assert checker.check_oracle(case, moved)
    assert checker.check_oracle(case, expect[:3])
    assert checker.check_oracle(CORPUS["f2"], []) == []


def test_family_is_seeded(tmp_path):
    a = cases.family_cases(3, tmp_path / "a")
    b = cases.family_cases(3, tmp_path / "b")
    c = cases.family_cases(4, tmp_path / "c")
    assert [x.offsets for x in a] == [x.offsets for x in b]
    assert [x.offsets for x in a] != [x.offsets for x in c]
    for case in a:
        assert 6 <= case.dim <= 8 and 10 <= case.num_facets <= 12
        point = cases.interior_point(case, random.Random(0))
        assert all(l > 0 for l in case.ell(point))


def test_holonomy_closed_form_is_roots_of_unity():
    nus = sorted(nu for _, nu in checker.holonomy_closed_form(CORPUS["p3"]))
    assert [nu[0] for nu in nus] == pytest.approx(
        [0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert all(len(set(nu)) == 1 for nu in nus)
