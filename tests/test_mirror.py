import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer import mirror
from toricfloer.discs import FiberPoint
from toricfloer.floer import AreaPartition, HolonomyVector
from toricfloer.mirror import (CriticalPoint, LevelTest, MirrorCoordinates,
                               MirrorPoint, OverflowGuardError, Superpotential,
                               build_superpotential,
                               check_delta2_equals_gradW, check_o_equals_W,
                               constraint_residuals_exact, critical_points,
                               gradient_W, holonomy_balanced,
                               mirror_coordinates, mirror_coordinates_exact,
                               obstruction_class)
from toricfloer.lattice import PolytopeError, kernel_lattice, parse_polytope

from conftest import CORPUS, assert_record, corpus_polytope


@pytest.mark.parametrize("make, field", [
    (lambda: Superpotential(1, ((1,), (-1,)), (Fraction(0), Fraction(-2))),
     "offsets"),
    (lambda: MirrorPoint((1 + 2j, 3 - 1j)), "theta"),
    (lambda: MirrorCoordinates((1 + 0j, -2j)), "y"),
    (lambda: CriticalPoint(MirrorPoint((1 + 0j,)), 1e-14, 2.0, False),
     "degenerate"),
    (lambda: LevelTest((1.0, 2.0), (0.0, math.pi),
                       AreaPartition(((0,), (1, 2)), (0.5, 1.0)), 0, 1.0,
                       "level 0 (facets [0]) does not balance"),
     "failed_level"),
], ids=["Superpotential", "MirrorPoint", "MirrorCoordinates",
        "CriticalPoint", "LevelTest"])
def test_record_semantics(make, field):
    assert_record(make, field)


class TestSuperpotential:
    def test_value_p2(self, corpus):
        w = build_superpotential(corpus["p2"])
        theta = np.array([3.0, 3.0])
        # e^{-3} + e^{-3} + e^{-9+6} = 3 e^{-3}
        assert w.value(theta) == pytest.approx(3 * math.exp(-3))

    def test_gradient_finite_difference(self, corpus):
        w = build_superpotential(corpus["f1"])
        rng = np.random.default_rng(11)
        theta = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = w.gradient(theta)
        h = 1e-7
        for a in range(2):
            e = np.zeros(2, dtype=complex)
            e[a] = h
            fd = (w.value(theta + e) - w.value(theta - e)) / (2 * h)
            assert g[a] == pytest.approx(fd, rel=1e-6)

    def test_hessian_symmetric(self, corpus):
        w = build_superpotential(corpus["p1xp1"])
        h = w.hessian(np.array([1.0 + 0.2j, 0.7 - 0.1j]))
        assert np.allclose(h, h.T)

    def test_overflow_guard(self, corpus):
        w = build_superpotential(corpus["p1"])
        with pytest.raises(OverflowGuardError):
            w.value(np.array([-800.0]))


class TestCoordinates:
    def test_mirror_coordinates(self, corpus):
        p = corpus["p2"]
        y = mirror_coordinates(p, MirrorPoint((1 + 2j, 3 - 1j)))
        assert y.y[0] == pytest.approx(1 + 2j)
        assert y.y[2] == pytest.approx(-(1 + 2j) - (3 - 1j) + 9)

    def test_constraint_identity_exact(self, corpus):
        rng = random.Random(5)
        for name in CORPUS:
            p = corpus_polytope(name)
            k = kernel_lattice(p)
            for _ in range(5):
                re = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                      for _ in range(p.dim)]
                im = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                      for _ in range(p.dim)]
                for s_re, s_im in constraint_residuals_exact(p, k, re, im):
                    assert s_re == 0 and s_im == 0

    def test_exact_matches_float(self, corpus):
        p = corpus["f1"]
        re, im = [Fraction(1, 3), Fraction(-2, 5)], [Fraction(0), Fraction(1)]
        exact = mirror_coordinates_exact(p, re, im)
        theta = MirrorPoint(tuple(complex(r) + 1j * complex(i)
                                  for r, i in zip(re, im)))
        approx = mirror_coordinates(p, theta)
        for (yr, yi), y in zip(exact, approx.y):
            assert complex(y) == pytest.approx(float(yr) + 1j * float(yi))


class TestCriticalPoints:
    def test_counts_match_chi(self, corpus):
        expect = {"p1": 2, "p2": 3, "p3": 4, "p1xp1": 4, "f1": 4}
        for name, n in expect.items():
            p = corpus_polytope(name)
            cps = critical_points(build_superpotential(p), p)
            assert len(cps) == n, name
            assert all(cp.residual < 1e-12 for cp in cps)
            assert not any(cp.degenerate for cp in cps)

    def test_p2_points(self, corpus):
        p = corpus["p2"]
        cps = critical_points(build_superpotential(p), p)
        for cp in cps:
            assert cp.point.fiber == pytest.approx((3.0, 3.0), abs=1e-10)
        nus = sorted(cp.point.holonomy[0] for cp in cps)
        assert nus == pytest.approx([0, 2 * math.pi / 3, 4 * math.pi / 3],
                                    abs=1e-8)

    def test_imaginary_normalization(self, corpus):
        p = corpus["f1"]
        for cp in critical_points(build_superpotential(p), p):
            for t in cp.point.theta:
                assert -2 * math.pi < t.imag <= 0

    def test_gradient_via_wrapper(self, corpus):
        p = corpus["p1"]
        cps = critical_points(build_superpotential(p), p)
        w = build_superpotential(p)
        for cp in cps:
            assert np.linalg.norm(gradient_W(w, cp.point)) < 1e-12

    def test_start_shift_invariance(self, corpus):
        # shifting every imaginary start by 2 pi / K leaves the set of
        # critical points invariant mod 2 pi i
        p = corpus["p1"]
        w = build_superpotential(p)
        a = mirror._newton_search(w, p, 5, 8)
        b = mirror._newton_search(w, p, 5, 12)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.allclose(x.point.theta, y.point.theta, atol=1e-8)

    def test_count_warning(self, corpus):
        p = corpus["p2"]
        with pytest.warns(UserWarning, match="Kushnirenko count"):
            critical_points(build_superpotential(p), p, grid_im=1, grid_re=1)

    @pytest.mark.parametrize("normals, offsets, count, points", [
        # octahedron |x| + |y| + |z| <= 1: W = e^-1 prod 2 cosh(Theta_i),
        # whose critical points in the torus include the curves
        # cosh = cosh = 0, so the count of conv{v_j} = [-1, 1]^3 is no
        # bound on what Newton finds
        ([(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)],
         [-1] * 8, 48, [(a, b, c) for a in (0, math.pi)
                        for b in (0, math.pi) for c in (0, math.pi)]),
        # square pyramid, its apex on 4 facets: sinh Theta_1 =
        # sinh Theta_2 = 0 and e^(2 Theta_3) = +-e / 4 at the 4 points,
        # below the count 8 of the pyramid conv{v_j}
        ([(0, 0, 1), (-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1)],
         [0, -1, -1, -1, -1], 8,
         [(0, 0, 0), (0, 0, math.pi), (math.pi, math.pi, math.pi / 2),
          (math.pi, math.pi, 3 * math.pi / 2)]),
    ])
    def test_count_without_fan(self, normals, offsets, count, points):
        # neither polytope is simple, so it has no normal fan; the count
        # comes from the facet normals
        p = parse_polytope("dim 3\n" + "".join(
            "normal " + " ".join(map(str, v)) + f" offset {lam}\n"
            for v, lam in zip(normals, offsets)))
        with pytest.warns(UserWarning, match=f"of {count} \\(Kushnirenko"):
            cps = critical_points(build_superpotential(p), p, grid_im=4,
                                  grid_re=2)
        got = [cp.point.holonomy for cp in cps if not cp.degenerate]
        assert len(got) <= count
        for nu in points:
            assert any(np.allclose(nu, h, atol=1e-8) for h in got), nu

    @pytest.mark.parametrize("name", CORPUS + ("octahedron",))
    def test_stacked_hessians_match_each_point(self, name):
        # one stacked Hessian SVD against one Hessian and one SVD per point
        if name == "octahedron":
            p = parse_polytope("dim 3\n" + "".join(
                f"normal {a} {b} {c} offset -1\n" for a in (1, -1)
                for b in (1, -1) for c in (1, -1)))
        else:
            p = corpus_polytope(name)
        w = build_superpotential(p)
        v2 = np.array(p.normals, dtype=float) ** 2
        found = mirror._newton_search(w, p, 2, 4)
        assert found
        for cp in found:
            _, (ew,), _, (h,) = w.scaled(np.array([cp.point.theta]))
            sv = np.linalg.svd(h, compute_uv=False)
            d = np.diag(1 / np.sqrt(np.abs(ew) @ v2))
            scaled = np.linalg.svd(d @ h @ d, compute_uv=False)
            degenerate = scaled[-1] <= 1e-8 * p.dim
            assert cp.degenerate == degenerate
            if not degenerate:
                assert cp.hessian_cond == pytest.approx(sv[0] / sv[-1],
                                                        rel=1e-12)

    def test_surplus_warning(self, corpus, monkeypatch):
        # the pure-Python pass finds nothing, so the batched search runs
        search = mirror._newton_search

        def doubled(*args):
            found = search(*args)
            return found + found[:1]

        monkeypatch.setattr(mirror, "_certified_pass", lambda *args: [])
        monkeypatch.setattr(mirror, "_newton_search", doubled)
        p = corpus["p1"]
        with pytest.warns(UserWarning, match="found 3 of 2"):
            critical_points(build_superpotential(p), p, grid_im=2,
                            grid_re=2)


    def test_entry_cap_checked_on_each_grid(self, corpus, monkeypatch):
        # p1xp1 has 4 vertices: the 2 x 4 grid runs 5 real starts against
        # 4^2 imaginary ones, 80 starts and 320 Hessian entries, and the
        # 3 x 4 grid runs 9 real starts, 144 starts and 576 entries; a
        # grid over the cap raises before its first Newton step of either
        # pass. The pure-Python pass finds nothing here, so the batched
        # search runs after it.
        steps = []
        newton_step = mirror._newton_step

        def recorded(h, g):
            steps.append(len(h))
            return newton_step(h, g)

        def no_pass(*args):
            steps.append("pass")
            return []

        monkeypatch.setattr(mirror, "_newton_step", recorded)
        monkeypatch.setattr(mirror, "_certified_pass", no_pass)
        p = corpus["p1xp1"]
        w = build_superpotential(p)
        monkeypatch.setattr(mirror, "MAX_NEWTON_ENTRIES", 320)
        assert len(critical_points(w, p)) == 4
        assert steps[:2] == ["pass", 80]
        for grid_re, entries in ((2, 320), (3, 576)):
            steps.clear()
            monkeypatch.setattr(mirror, "MAX_NEWTON_ENTRIES", entries - 1)
            with pytest.raises(PolytopeError,
                               match=f"the {grid_re}x4 grid in dimension 2 "
                                     f"needs {entries // 4} starts, "
                                     f"{entries} entries"):
                critical_points(w, p, grid_re=grid_re)
            assert steps == []

    def test_no_hessians_after_the_loop(self, corpus, monkeypatch):
        # the batched search builds the Hessians once per Newton iteration
        # and ranks its rows with one gradient-only evaluation of all rows
        calls = []
        cls = mirror.Superpotential
        scaled, scaled_gradient = cls.scaled, cls.scaled_gradient

        def hessians(self, theta):
            calls.append(("hessian", len(theta)))
            return scaled(self, theta)

        def gradients(self, theta):
            calls.append(("gradient", len(theta)))
            return scaled_gradient(self, theta)

        monkeypatch.setattr(cls, "scaled", hessians)
        monkeypatch.setattr(cls, "scaled_gradient", gradients)
        monkeypatch.setattr(mirror, "_certified_pass", lambda *args: [])
        p = corpus["p1xp1"]
        assert len(critical_points(build_superpotential(p), p)) == 4
        # 5 real starts against 4^2 imaginary ones
        assert calls[-1] == ("gradient", 80)
        loop = calls[:-1]
        assert 0 < len(loop) <= 2 * mirror.MAX_ITER
        assert [kind for kind, _ in loop] == ["hessian", "gradient"] * (
            len(loop) // 2)
        rows = [k for _, k in loop[::2]]
        assert rows[0] == 80 and rows == sorted(rows, reverse=True)

    def test_equal_residuals_in_start_order(self, corpus, monkeypatch):
        # Newton steps of 0 and residuals 0, 1e-16, 2e-16, 0, ... by start
        # index: the dedup sees the starts by residual, equal residuals in
        # start order
        monkeypatch.setattr(np.linalg, "solve",
                            lambda h, g: np.zeros_like(g))
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x, axis: np.arange(len(x)) % 3 * 1e-16)
        seen = []
        dedup = mirror.dedup_mod_2pi

        def recorded(re, im, tol):
            seen.append((re, im))
            return dedup(re, im, tol)

        monkeypatch.setattr(mirror, "dedup_mod_2pi", recorded)
        p = corpus["p1"]
        mirror._newton_search(build_superpotential(p), p, 40, 40)
        # the real starts: the centroid, then 39 points towards it from
        # each vertex moved one unit outward, each against the 40
        # imaginary starts
        (lo,), (hi,) = p.vertices()
        mid = (lo + hi) / 2
        re = np.repeat([float(mid)] + [float(x) + k / 39 * float(mid - x)
                                       for x in (lo - 1, hi + 1)
                                       for k in range(39)], 40)
        im = np.array([mirror.wrap_angle(x) for x in np.tile(
            np.arange(40) * (math.pi / 20), 79)])
        order = np.argsort(np.arange(3160) % 3, kind="stable")
        assert np.array_equal(np.array(seen[0][0])[:, 0], re[order])
        assert np.array_equal([mirror.wrap_angle(x) for x, in seen[0][1]],
                              im[order])

    def test_newton_step_regularises_only_singular_rows(self):
        # one rank-one Hessian in the batch makes the batched solve raise;
        # only that row is regularised, and every other row keeps the
        # step of its own solve
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        h = a @ a.transpose(0, 2, 1)
        u = np.array([1.0, 2.0, -1.0])
        h[2] = np.outer(u, u)
        g = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(h, g[..., None])
        step = mirror._newton_step(h, g)
        assert np.isfinite(step).all()
        for i in (0, 1, 3, 4):
            assert np.array_equal(step[i], np.linalg.solve(h[i], g[i]))


def _scaled_polytope(kind, s):
    """P^2 of side s, P^2 of side 3 times P^1 of length s, or (P^1)^3 of
    lengths s, s + 1, s + 2, with their balanced fibers in closed form:
    A at the barycentre, nu = 2 pi m / (k + 1) on each P^k factor."""
    factors = {"p2": [(2, s)], "p2xp1": [(2, 3), (1, s)],
               "p1^3": [(1, s), (1, s + 1), (1, s + 2)]}[kind]
    dim = sum(k for k, _ in factors)
    lines, a, nus, start = [f"dim {dim}"], [], [[]], 0
    for k, size in factors:
        coords = range(start, start + k)
        for i in coords:
            lines.append("normal " + " ".join(
                "1" if j == i else "0" for j in range(dim)) + " offset 0")
        lines.append("normal " + " ".join(
            "-1" if j in coords else "0" for j in range(dim))
            + f" offset {-size}")
        a += [size / (k + 1)] * k
        nus = [nu + [2 * math.pi * m / (k + 1)] * k
               for nu in nus for m in range(k + 1)]
        start += k
    return parse_polytope("\n".join(lines) + "\n"), a, nus


@pytest.mark.parametrize("size", (21, 60, 100, 200, 1000))
@pytest.mark.parametrize("kind", ("p2", "p2xp1", "p1^3"))
def test_balanced_fibers_at_scale(kind, size):
    # the weights at the critical points are e^-(size / 3) and smaller, so
    # an absolute gradient tolerance would accept or reject them wrongly
    p, a, nus = _scaled_polytope(kind, size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cps = critical_points(build_superpotential(p), p)
        sols, tests = holonomy_balanced(p, cps)
    assert len(cps) == len(sols) == len(nus)
    assert not any(cp.degenerate for cp in cps)
    assert sorted(t.solution for t in tests) == list(range(len(nus)))
    for s in sols:
        assert s.point.coords == pytest.approx(a, abs=1e-12)
    for nu in nus:
        assert sum(max(min(abs(x - y) % (2 * math.pi),
                           -abs(x - y) % (2 * math.pi))
                       for x, y in zip(s.nu.nu, nu)) < 1e-8
                   for s in sols) == 1, nu



def _quadrant(facets):
    return "dim 2\nnormal 1 0 offset 0\nnormal 0 1 offset 0\n" + facets


# inputs that defeat a plain search: id -> (polytope, nondegenerate
# points, warning)
HARD_INPUTS = {
    # F_1 trapezoids y <= 300, x + y <= 1000 and y <= 1000, x + y <= 1500,
    # whose 4 points lie hundreds of units from every vertex
    "f1-300-1000": (_quadrant("normal 0 -1 offset -300\n"
                              "normal -1 -1 offset -1000"), 4, None),
    "f1-1000-1500": (_quadrant("normal 0 -1 offset -1000\n"
                               "normal -1 -1 offset -1500"), 4, None),
    # the blowups 100 <= x + y <= 300 and 31 <= x + y <= 291 of P^2
    "blowup-100-300": (_quadrant("normal -1 -1 offset -300\n"
                                 "normal 1 1 offset 100"), 4, None),
    "blowup-31-291": (_quadrant("normal -1 -1 offset -291\n"
                                "normal 1 1 offset 31"), 4, None),
    # P^2 of side 5000, where every weight at the points is e^-5000/3
    "p2-5000": (_quadrant("normal -1 -1 offset -5000"), 3, None),
    # the Hirzebruch surface F_5 with y <= 119/4, x + 5 y <= 339/2: not
    # Fano, and 4 of the count 7 are found
    "f5": (_quadrant("normal 0 -1 offset -119/4\n"
                     "normal -1 -5 offset -339/2"), 4, "found 4 of 7"),
    # F_4 with y <= 26, x + 4 y <= 108: 2 of its 6 points lie outside,
    # at y = 26.61 near the vertex (0, 26)
    "f4": (_quadrant("normal 0 -1 offset -26\nnormal -1 -4 offset -108"),
           6, None),
    # P^2(3) x P^1(5000): the P^2 weights underflow next to the P^1 ones,
    # so every point is degenerate to working precision
    "p2xp1-5000": ("dim 3\nnormal 1 0 0 offset 0\nnormal 0 1 0 offset 0\n"
                   "normal -1 -1 0 offset -3\nnormal 0 0 1 offset 0\n"
                   "normal 0 0 -1 offset -5000\n", 0, "found 0 of 6"),
    # a non-Fano 3-fold drawn by the planted-point generator of
    # test_floer: the search finds 10 of its 11 points
    "planted-3fold": ("dim 3\nnormal -1 0 0 offset -6\n"
                      "normal 0 1 1 offset -6\nnormal 1 -1 -1 offset -6\n"
                      "normal -1 0 -1 offset -5/2\n"
                      "normal -1 1 -1 offset -8\n"
                      "normal 1 -1 0 offset 1/2\n", 10, "found 10 of 11"),
    # the thin strip 290 <= x + y <= 300: the Hessian eigenvalues at its 4
    # roots differ by about e^-142, so each is degenerate in this basis
    "strip-290-300": (_quadrant("normal -1 -1 offset -300\n"
                                "normal 1 1 offset 290"), 0, "found 0 of 4"),
}


@pytest.mark.parametrize("text, count, warning", HARD_INPUTS.values(),
                         ids=HARD_INPUTS.keys())
def test_critical_points_on_hard_inputs(text, count, warning):
    p = parse_polytope(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cps = critical_points(build_superpotential(p), p)
    messages = [str(w.message) for w in caught]
    if warning is None:
        assert messages == [] and len(cps) == count
        assert not any(cp.degenerate for cp in cps)
    else:
        assert len(messages) == 1 and warning in messages[0]
        assert sum(not cp.degenerate for cp in cps) == count
    # the gradient of W e^-c, recomputed term by term, vanishes relative
    # to the size of its terms
    for cp in cps:
        if cp.degenerate:
            continue
        args = [float(lam) - sum(t * x for t, x in zip(cp.point.theta, v))
                for v, lam in p.facets]
        c = max(a.real for a in args)
        terms = [(cmath.exp(a - c), v) for a, (v, _) in zip(args, p.facets)]
        grad = [sum(e * v[i] for e, v in terms) for i in range(p.dim)]
        assert math.hypot(*map(abs, grad)) <= 1e-8 * sum(
            abs(e) * math.hypot(*v) for e, v in terms)


# the hard inputs whose centroid starts hold K certified points
SETTLED = ("f1-1000-1500", "blowup-100-300", "p2-5000")


@pytest.mark.parametrize("name", CORPUS + SETTLED)
def test_certified_pass_matches_batched_search(name):
    p = (corpus_polytope(name) if name in CORPUS
         else parse_polytope(HARD_INPUTS[name][0]))
    w = build_superpotential(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = critical_points(w, p)
    assert got == mirror._certified_pass(w, p, 4, p.kushnirenko_count)
    want = mirror._newton_search(w, p, 2, 4)
    assert len(got) == len(want) == p.kushnirenko_count
    for a, b in zip(got, want):
        assert not a.degenerate and not b.degenerate
        for x, y in zip(a.point.theta, b.point.theta):
            assert abs(x.real - y.real) <= mirror.DEDUP_TOL
            d = abs(x.imag - y.imag) % (2 * math.pi)
            assert min(d, 2 * math.pi - d) <= mirror.DEDUP_TOL
        assert a.hessian_cond == pytest.approx(b.hessian_cond, abs=1e-9)
        assert a.residual <= 1e-12


@pytest.mark.parametrize("name", CORPUS + ("f4", "planted-3fold"))
def test_newton_starts_at_cached_centroid(name, monkeypatch):
    from toricfloer.lattice import _centroid

    p = (corpus_polytope(name) if name in CORPUS
         else parse_polytope(HARD_INPUTS[name][0]))
    assert p.centroid == tuple(_centroid(p.vertices()))
    assert all(isinstance(x, Fraction) for x in p.centroid)
    assert p.centroid is p.centroid
    want = [float(x) for x in p.centroid]
    w = build_superpotential(p)
    starts = []
    newton_pure = mirror._newton_pure

    def first_pure(w, z):
        starts.append([t.real for t in z])
        return newton_pure(w, z)

    monkeypatch.setattr(mirror, "_newton_pure", first_pure)
    mirror._certified_pass(w, p, 4, p.kushnirenko_count)
    assert starts[0] == want
    scaled = Superpotential.scaled

    def first_batch(self, theta):
        starts.append(theta.real[0].tolist())
        return scaled(self, theta)

    monkeypatch.setattr(Superpotential, "scaled", first_batch)
    starts.clear()
    mirror._newton_search(w, p, 2, 4)
    assert starts[0] == want


def test_no_certified_pass_with_fewer_starts_than_k(monkeypatch):
    # the 16 primitive normals (a, b) with |a|, |b| <= 2 and offsets
    # -(a^2 + b^2) give K = 28 > 4^2 centroid starts: a pass keeping at
    # most one point per start cannot reach K, so it does not run and the
    # batched search gives the records and the warning
    text = "dim 2\n" + "".join(
        f"normal {a} {b} offset {-(a * a + b * b)}\n"
        for a in range(-2, 3) for b in range(-2, 3) if math.gcd(a, b) == 1)
    p = parse_polytope(text)
    w = build_superpotential(p)
    assert p.num_facets == 16 and p.kushnirenko_count == 28
    want = mirror._newton_search(w, p, 2, 4)

    def no_pass(*args):
        raise AssertionError("the certified pass ran")

    monkeypatch.setattr(mirror, "_certified_pass", no_pass)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = critical_points(w, p)
    assert got == want
    assert [str(m.message) for m in caught] == [
        "found 20 of 28 (Kushnirenko count): search incomplete or roots "
        "degenerate"]


def test_certificate_rejects_off_root_and_rank_one(corpus):
    p = corpus["f1"]
    w = build_superpotential(p)
    for cp in critical_points(w, p):
        z = list(cp.point.theta)
        assert mirror._certify(w, z) is not None
        assert mirror._certify(w, [z[0] + 1e-3] + z[1:]) is None
    # e^Theta_1 + e^-Theta_1 leaves Theta_2 free: every point with
    # Theta_1 = 0 is critical, and the Hessian there is rank one
    w = Superpotential(2, ((1, 0), (-1, 0)), (Fraction(0), Fraction(0)))
    _, _, g, h = w.scaled_at([0j, 0.3j])
    assert g == [0j, 0j] and h == [[2, 0], [0, 0]]
    assert mirror._certify(w, [0j, 0.3j]) is None


def test_certificate_counts_degenerate_by_the_record(corpus, monkeypatch):
    # with every record degenerate, the certified pass keeps no point and
    # the batched search counts none, so one rule governs both paths
    p = corpus["p2"]
    w = build_superpotential(p)
    z = list(critical_points(w, p)[0].point.theta)
    record = mirror._critical_point
    monkeypatch.setattr(mirror, "_critical_point",
                        lambda *a: record(*a)._replace(degenerate=True))
    assert mirror._certify(w, z) is None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cps = critical_points(w, p)
    assert len(cps) == 3 and all(cp.degenerate for cp in cps)
    assert [str(m.message) for m in caught] == [
        "found 0 of 3 (Kushnirenko count): search incomplete or roots "
        "degenerate"]


_entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                              allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_singular_values_match_numpy(rows):
    a = np.array(rows)
    h = a + a.T
    want = np.linalg.svd(h, compute_uv=False)
    got = mirror._singular_values(h.tolist())
    assert got == pytest.approx(want.tolist(), rel=0, abs=1e-12 * want[0])


class TestCorrespondence:
    def test_obstruction_class_levels(self, corpus):
        p = corpus["p2"]
        o = obstruction_class(p, FiberPoint.rational(1, 3))
        assert [t.level for t in o.terms] == [1, 3, 5]
        assert all(t.q_power == 1 for t in o.terms)

    def test_o_equals_W_random(self, corpus):
        rng = random.Random(2)
        for name in CORPUS:
            p = corpus_polytope(name)
            verts = p.vertices()
            for _ in range(10):
                a = _random_interior(p, verts, rng)
                nu = HolonomyVector.of(
                    *[rng.uniform(0, 2 * math.pi) for _ in range(p.dim)])
                assert check_o_equals_W(p, a, nu) < 1e-12
                assert check_delta2_equals_gradW(p, a, nu) < 1e-12

    def test_checks_are_relative_deep_inside(self, monkeypatch):
        # at (999, 1000) in P^2 of side 3000 every weight underflows; the
        # checks divide by the largest, e^-999, and see a relative 1e-6
        # change of the term at that level
        p = parse_polytope("dim 2\nnormal 1 0 offset 0\nnormal 0 1 offset 0"
                           "\nnormal -1 -1 offset -3000\n")
        a = FiberPoint.rational(999, 1000)
        assert check_o_equals_W(p, a) < 1e-12
        assert check_delta2_equals_gradW(p, a) < 1e-12

        def perturbed(make):
            def wrapped(*args):
                v = make(*args)
                t = v.terms[0]
                assert t.level == 999
                return v._replace(terms=(t._replace(vector=tuple(
                    x * (1 + 1e-6) for x in t.vector)),) + v.terms[1:])
            return wrapped

        monkeypatch.setattr(mirror, "obstruction_class",
                            perturbed(mirror.obstruction_class))
        monkeypatch.setattr(mirror, "delta2_point",
                            perturbed(mirror.delta2_point))
        assert check_o_equals_W(p, a) > 1e-9
        assert check_delta2_equals_gradW(p, a) > 1e-9


def _random_interior(p, verts, rng):
    while True:
        weights = [rng.random() for _ in verts]
        tot = sum(weights)
        x = [sum(wt * float(v[i]) for wt, v in zip(weights, verts)) / tot
             for i in range(p.dim)]
        a = FiberPoint.numeric(*x)
        if all(float(l) > 1e-6 for l in a.ell(p)):
            return a
