"""Acceptance suite: one test (and one printed pass line) per criterion.

Run with ``pytest -v`` to get one PASSED/FAILED line per criterion; the
explicit ``PASS criterion N`` prints are also emitted (visible with ``-s``).
"""

import cmath
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from toricfloer.discs import (DiscClass, FiberPoint, disc_area_exact,
                              index_two_classes, make_lift, maslov_index,
                              winding_maslov)
from toricfloer.floer import (HolonomyVector, UnsupportedRegimeWarning,
                              balanced_fibers_novikov,
                              equal_area_certificate, hf_rank,
                              spectral_rank_check)
from toricfloer.lattice import kernel_lattice
from toricfloer.mirror import (balanced_fibers_with_holonomy,
                               build_superpotential,
                               check_delta2_equals_gradW, check_o_equals_W,
                               constraint_residuals_exact, critical_points)
from toricfloer.oracle import balanced_oracle

from conftest import CORPUS, corpus_polytope

TWO_PI = 2 * math.pi


def _ok(msg: str) -> None:
    print(f"PASS {msg}")


def _circ(x: float, y: float) -> float:
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


def _random_interior(p, verts, rng):
    while True:
        weights = [rng.random() for _ in verts]
        tot = sum(weights)
        x = [sum(wt * float(v[i]) for wt, v in zip(weights, verts)) / tot
             for i in range(p.dim)]
        a = FiberPoint.numeric(*x)
        if all(float(l) > 1e-6 for l in a.ell(p)):
            return a


def test_criterion_01_p2_balanced_fiber_and_rank(corpus):
    p = corpus["p2"]
    sols = balanced_fibers_with_holonomy(p)
    assert len(sols) == 3
    expect = [(0.0, 0.0), (TWO_PI / 3, TWO_PI / 3),
              (2 * TWO_PI / 3, 2 * TWO_PI / 3)]
    for s in sols:
        assert max(abs(c - 3.0) for c in s.point.as_floats()) < 1e-8
    got = sorted(s.nu.nu for s in sols)
    for g, e in zip(got, sorted(expect)):
        assert max(_circ(a, b) for a, b in zip(g, e)) < 1e-8
    assert hf_rank(p, FiberPoint.rational(3, 3)) == 4
    assert hf_rank(p, FiberPoint.rational(1, 3)) == 0
    _ok("criterion 1: P^2 balanced fiber A=(3,3) with the three cube-root "
        "holonomies (tol 1e-8); hf_rank 4 there, 0 at (1,3)")


def test_criterion_02_f1_critical_points(corpus):
    p = corpus["f1"]
    assert balanced_fibers_novikov(p) == []
    cps = critical_points(build_superpotential(p), p)
    assert len(cps) == 4
    for cp in cps:
        a1, a2 = cp.point.fiber
        nu1, nu2 = cp.point.holonomy
        x = cmath.exp(1j * nu1) * math.exp(-a1)
        assert abs(x ** 4 + x ** 3 - 1) < 1e-10
        assert abs(a2 - 2 * a1) < 1e-8
        assert _circ(nu2, (2 * nu1) % TWO_PI) < 1e-8
    _ok("criterion 2: F_1 has no Novikov-balanced fiber; exactly 4 critical "
        "points, each with X^4+X^3-1=0 (|res|<1e-10), a2=2a1, nu2=2nu1 "
        "(tol 1e-8)")


def test_criterion_03_hirzebruch_infeasibility(corpus):
    for name in ("f1", "f2"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnsupportedRegimeWarning)
            assert balanced_fibers_novikov(corpus[name]) == []
    # F_2 full-merge partition: the exact certificate reproduces
    # (2 - c)/2 * A - B with c = 2, A = 2, B = 1
    p = corpus["f2"]
    c, a_width, b_width = 2, Fraction(2), Fraction(1)
    _, violations = equal_area_certificate(p, ((0, 1, 2, 3),))
    expect = Fraction(2 - c, 2) * a_width - b_width
    assert violations and any(v == expect for _, _, v in violations)
    assert expect <= 0
    _ok("criterion 3: F_1 and F_2 have no Novikov-balanced fiber; the F_2 "
        "certificate reproduces B = (2-c)/2*A <= 0 exactly")


def test_criterion_04_p1xp1_center(corpus):
    sols = balanced_fibers_with_holonomy(corpus["p1xp1"])
    assert len(sols) == 4
    points = {tuple(round(c, 8) for c in s.point.as_floats()) for s in sols}
    assert points == {(1.0, 1.0)}
    expect = [(0.0, 0.0), (0.0, math.pi), (math.pi, 0.0),
              (math.pi, math.pi)]
    for e in expect:
        matches = [s for s in sols
                   if max(_circ(x, y) for x, y in zip(s.nu.nu, e)) < 1e-8]
        assert len(matches) == 1, e
    _ok("criterion 4: P^1 x P^1 (equal areas) has exactly one balanced "
        "fiber (the center) with exactly 4 holonomy vectors")


def test_criterion_05_critical_counts_match_chi():
    expect = {"p1": 2, "p2": 3, "p3": 4, "p1xp1": 4, "f1": 4}
    for name, chi in expect.items():
        p = corpus_polytope(name)
        cps = critical_points(build_superpotential(p), p)
        assert len(cps) == chi, name
        assert all(cp.residual < 1e-12 for cp in cps), name
    _ok("criterion 5: critical-point count equals chi on "
        "{P^1:2, P^2:3, P^3:4, P^1xP^1:4, F_1:4}, residuals < 1e-12")


def test_criterion_06_index_area_properties():
    rng = random.Random(20240824)
    checked = 0
    for name in CORPUS:
        p = corpus_polytope(name)
        for d in index_two_classes(p):
            assert maslov_index(d) == 2
    names = [n for n in CORPUS]
    for _ in range(200):
        name = rng.choice(names)
        p = corpus_polytope(name)
        k = kernel_lattice(p)
        verts = p.vertices()
        a = _random_interior(p, verts, rng)
        d = DiscClass(tuple(rng.randint(0, 2)
                            for _ in range(p.num_facets)))
        roots = tuple(
            tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                  for _ in range(m)) for m in d.multiplicities)
        phases = tuple(rng.uniform(0, TWO_PI) for _ in range(p.num_facets))
        lift = make_lift(d, a, p, k, phases, roots)
        assert winding_maslov(lift) == maslov_index(d)
        checked += 1
    assert checked == 200
    # exact additivity of areas in rational mode
    p = corpus_polytope("f1")
    a = FiberPoint.rational(Fraction(-1, 7), Fraction(2, 9))
    for _ in range(20):
        d1 = DiscClass(tuple(rng.randint(0, 4) for _ in range(4)))
        d2 = DiscClass(tuple(rng.randint(0, 4) for _ in range(4)))
        assert (disc_area_exact(d1 + d2, a, p) ==
                disc_area_exact(d1, a, p) + disc_area_exact(d2, a, p))
    _ok("criterion 6: maslov_index(D(v_j)) = 2 on every corpus facet; "
        "winding_maslov matches on 200 random Blaschke lifts; exact area "
        "additivity")


def test_criterion_07_correspondence_identities():
    rng = random.Random(14)
    for name in CORPUS:
        p = corpus_polytope(name)
        verts = p.vertices()
        for _ in range(100):
            a = _random_interior(p, verts, rng)
            nu = HolonomyVector.of(
                *[rng.uniform(0, TWO_PI) for _ in range(p.dim)])
            assert check_o_equals_W(p, a, nu) < 1e-12
            assert check_delta2_equals_gradW(p, a, nu) < 1e-12
    _ok("criterion 7: o(L)=W and delta2=-grad W hold to 1e-12 on 100 "
        "random (A, nu) per corpus polytope")


def _brute_force_total_rank(c):
    # independent construction: bitmask-indexed wedge matrix, rank via
    # numpy's rank (different basis ordering and sign bookkeeping)
    n = len(c)
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for mask in range(dim):
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                continue
            sign = (-1) ** bin(mask & (bit - 1)).count("1")
            mat[mask | bit, mask] += sign * c[j]
    r = np.linalg.matrix_rank(mat, tol=1e-10)
    return dim - 2 * int(r)


def test_criterion_08_spectral_dichotomy():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3, 4):
        assert spectral_rank_check([0.0] * n) == 2 ** n
        assert _brute_force_total_rank([0.0] * n) == 2 ** n
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = spectral_rank_check(c)
        assert got == 0
        assert got == _brute_force_total_rank(c)
    _ok("criterion 8: spectral_rank_check = 0 on 100 random nonzero c "
        "(n <= 4) and 2^n at c = 0, matching the brute-force matrix rank")


def test_criterion_09_oracle_completeness():
    for name in CORPUS:
        p = corpus_polytope(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnsupportedRegimeWarning)
            pipeline = balanced_fibers_with_holonomy(p)
            if p.dim <= 2:
                cands = balanced_oracle(p, n_a=120, n_nu=48)
            else:
                cands = balanced_oracle(p)
        for cand in cands:
            dist = min(
                (max(max(abs(x - y) for x, y in
                         zip(cand.point, s.point.as_floats())),
                     max(_circ(x, y) for x, y in zip(cand.nu, s.nu.nu)))
                 for s in pipeline), default=math.inf)
            assert dist < 1e-2, (name, cand)
        # and the oracle must rediscover every pipeline solution
        for s in pipeline:
            dist = min(
                (max(max(abs(x - y) for x, y in
                         zip(cand.point, s.point.as_floats())),
                     max(_circ(x, y) for x, y in zip(cand.nu, s.nu.nu)))
                 for cand in cands), default=math.inf)
            assert dist < 1e-2, (name, s)
    _ok("criterion 9: grid oracle and exact/Newton pipelines agree on every "
        "corpus polytope within 1e-2")


def test_criterion_10_constraint_identity_exact():
    rng = random.Random(99)
    for name in CORPUS:
        p = corpus_polytope(name)
        k = kernel_lattice(p)
        for _ in range(50):
            re = [Fraction(rng.randint(-100, 100), rng.randint(1, 12))
                  for _ in range(p.dim)]
            im = [Fraction(rng.randint(-100, 100), rng.randint(1, 12))
                  for _ in range(p.dim)]
            for s_re, s_im in constraint_residuals_exact(p, k, re, im):
                assert s_re == 0 and s_im == 0
    _ok("criterion 10: sum_i Q_ia Y_i = t_a holds exactly for 50 random "
        "rational Theta per corpus polytope")
