import itertools
import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from toricfloer import floer
from toricfloer.discs import FiberPoint
from toricfloer.floer import (AreaPartition, BalancedDescription,
                              BalancedSolution, HolonomyVector, NovikovTerm,
                              NovikovVector, UnsupportedRegimeError,
                              UnsupportedRegimeWarning,
                              balanced_fibers_novikov, delta2_point,
                              delta2_vanishes, delta_k_vanishing,
                              describe_balanced,
                              equal_area_certificate, hf_rank,
                              spectral_rank_check)
from toricfloer.lattice import (FanError, PolytopeError, normal_fan,
                                parse_polytope)
from toricfloer.mirror import (balanced_fibers_with_holonomy,
                               build_superpotential, critical_points,
                               holonomy_balanced, obstruction_class)
from toricfloer.oracle import least_squares
from toricfloer.solve import dedup_mod_2pi, sort_key, wrap_angle

from conftest import CORPUS, assert_record, corpus_polytope


def _solution():
    return BalancedSolution(FiberPoint.numeric(1.0, 2.0),
                            HolonomyVector.of(0.0, math.pi),
                            AreaPartition(((0, 1, 2),), (1.0,)), 1e-12)


class TestRecords:
    @pytest.mark.parametrize("make, field", [
        (lambda: HolonomyVector.of(1.0, 2.0), "nu"),
        (lambda: NovikovTerm(1.0 + 0j, 0.5, 1, (1.0, 0.0)), "level"),
        (lambda: NovikovVector((NovikovTerm(Fraction(1), Fraction(1), 1,
                                            (Fraction(1),)),), True),
         "terms"),
        (lambda: AreaPartition(((0, 2), (1,)), (Fraction(1), Fraction(2))),
         "blocks"),
        (_solution, "residual"),
        (lambda: BalancedDescription((1, 1), (Fraction(1),), "P^1 x P^1"),
         "text"),
    ], ids=["HolonomyVector", "NovikovTerm", "NovikovVector",
            "AreaPartition", "BalancedSolution", "BalancedDescription"])
    def test_value_semantics(self, make, field):
        assert_record(make, field)

    def test_defaults(self):
        assert not NovikovVector(()).exact


class TestDelta2:
    def test_p2_center_vanishes_exactly(self, corpus):
        d2 = delta2_point(corpus["p2"], FiberPoint.rational(3, 3))
        assert d2.exact and d2.is_zero()
        assert d2.terms == ()

    def test_p2_off_center(self, corpus):
        d2 = delta2_point(corpus["p2"], FiberPoint.rational(1, 3))
        assert not d2.is_zero()
        # levels 1, 3, 5 all survive
        assert [t.level for t in d2.terms] == [1, 3, 5]
        assert all(t.q_power == 1 for t in d2.terms)

    def test_sign_convention(self, corpus):
        # n = 1: sign (-1)^n = -1 on each term
        d2 = delta2_point(corpus["p1"], FiberPoint.rational(Fraction(1, 2)))
        lv = {t.level: t.vector for t in d2.terms}
        assert lv == {Fraction(1, 2): (-1,), Fraction(3, 2): (1,)}

    def test_holonomy_weights(self, corpus):
        nu = HolonomyVector.of(math.pi, 0.0)
        d2 = delta2_point(corpus["p2"], FiberPoint.numeric(3.0, 3.0), nu)
        assert not d2.exact
        # h factors e^{i<nu,v>}: -1, 1, -1 on the three generators; the
        # common level 3 no longer cancels
        assert not d2.is_zero()

    def test_specialize_matches_direct_sum(self, corpus):
        p = corpus["f1"]
        a = FiberPoint.numeric(0.2, -0.1)
        d2 = delta2_point(p, a)
        direct = sum(
            math.exp(-float(l)) * np.array(v, dtype=float)
            for v, l in zip(p.normals, [float(x) for x in a.ell(p)]))
        assert np.allclose(d2.specialize(), (-1) ** p.dim * direct)

    def test_exact_levels_sort_exactly(self, corpus):
        # 1 + 10^-30 and 1 round to the same float; facet 0 is at the
        # greater level, so a float sort would keep it first
        x = 1 + Fraction(1, 10 ** 30)
        d2 = delta2_point(corpus["p2"], FiberPoint.rational(x, 1))
        assert [t.level for t in d2.terms] == [1, x, 8 - x]
        assert [t.vector for t in d2.terms] == [(0, 1), (1, 0), (-1, -1)]

    def test_float_fiber_is_not_exact(self, corpus):
        # a float coordinate makes the fiber, and delta2 there, floating
        a = FiberPoint((1.1, 0.9))
        assert not a.exact and FiberPoint((1, Fraction(1, 2))).exact
        d2 = delta2_point(corpus["p2"], a)
        assert not d2.exact and d2.terms
        assert all(type(t.level) is float for t in d2.terms)


def _corpus_fibers(p, rng):
    """The vertex centroid, a rational point a third of the way to the
    first vertex, and a random float interior point."""
    c = p.centroid
    verts = p.vertices()
    weights = [rng.random() for _ in verts]
    x = [sum(w * float(v[i]) for w, v in zip(weights, verts)) / sum(weights)
         for i in range(p.dim)]
    return [FiberPoint(c),
            FiberPoint(tuple((2 * a + b) / 3 for a, b in zip(c, verts[0]))),
            FiberPoint.numeric(*x)]


@pytest.mark.parametrize("name", CORPUS)
def test_obstruction_class_specializes_with_holonomy(name):
    # each basic disc contributes e^{i <nu, v_j>} e^{-ell_j(A)}
    p = corpus_polytope(name)
    rng = random.Random(f"obstruction:{name}")
    for a in _corpus_fibers(p, rng):
        for _ in range(5):
            nu = HolonomyVector.of(
                *[rng.uniform(0, 2 * math.pi) for _ in range(p.dim)])
            ells = [float(l) for l in a.ell(p)]
            want = sum(nu.factor(v) * math.exp(-l)
                       for v, l in zip(p.normals, ells))
            (got,) = obstruction_class(p, a, nu).specialize()
            assert abs(got - want) <= 1e-12 * sum(math.exp(-l) for l in ells)


@pytest.mark.parametrize("tol", (1e-12, 1e-10, 1e-9))
@pytest.mark.parametrize("name", CORPUS)
def test_novikov_vanishing_is_an_empty_merge(name, tol):
    # over the Novikov ring delta2 vanishes exactly when the merge, which
    # drops level vectors with no entry above 1e-9, leaves no term, at any
    # tol: at p1's centre nu = 2.5e-10 gives a level block summing to
    # 5e-10 i, which the merge drops
    p = corpus_polytope(name)
    rng = random.Random(f"novikov:{name}")
    nus = [None, HolonomyVector.of(*[0.0] * p.dim),
           HolonomyVector.of(*[2.5e-10] * p.dim),
           HolonomyVector.of(math.pi, *[0.0] * (p.dim - 1)),
           HolonomyVector.of(*[rng.uniform(0, 2 * math.pi)
                               for _ in range(p.dim)])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnsupportedRegimeWarning)
        balanced = [s.point for s in balanced_fibers_novikov(p)]
    fibers = _corpus_fibers(p, rng) + balanced
    for a in fibers:
        for nu in nus:
            d2 = delta2_point(p, a, nu)
            assert delta2_vanishes(p, a, d2, "novikov", tol) == (not d2.terms)


class TestRank:
    def test_p2_rank_dichotomy(self, corpus):
        assert hf_rank(corpus["p2"], FiberPoint.rational(3, 3)) == 4
        assert hf_rank(corpus["p2"], FiberPoint.rational(1, 3)) == 0

    def test_exp_mode_f1(self, corpus):
        # real critical fiber of the F1 superpotential: rank 4 only after
        # the T^{2 pi} = e^{-1} specialization
        from toricfloer.mirror import build_superpotential, critical_points
        p = corpus["f1"]
        cps = critical_points(build_superpotential(p), p)
        real = [cp for cp in cps
                if all(t.imag == 0 for t in cp.point.theta)]
        assert len(real) == 1
        a = FiberPoint.numeric(*real[0].point.fiber)
        assert hf_rank(p, a, coefficients="exp", tol=1e-8) == 4
        assert hf_rank(p, a, coefficients="novikov") == 0

    @pytest.mark.parametrize("side, fiber, rank", [
        (100, (30, 30), 0), (100, (Fraction(100, 3),) * 2, 4),
        (3000, (999, 1000), 0), (3000, (1000, 1000), 4)])
    def test_exp_mode_deep_inside(self, side, fiber, rank):
        # every weight e^-ell_j is below 1e-13, and at side 3000 every one
        # underflows: the test is relative to the largest weight
        p = parse_polytope(f"dim 2\nnormal 1 0 offset 0\n"
                           f"normal 0 1 offset 0\n"
                           f"normal -1 -1 offset -{side}\n")
        a = FiberPoint.rational(*fiber)
        assert hf_rank(p, a, coefficients="exp") == rank
        assert hf_rank(p, a, coefficients="novikov") == rank

    def test_non_fano_raises(self, corpus):
        with pytest.raises(UnsupportedRegimeError):
            hf_rank(corpus["f2"], FiberPoint.rational(1, 1))

    def test_bad_mode(self, corpus):
        with pytest.raises(ValueError, match="coefficient mode"):
            hf_rank(corpus["p2"], FiberPoint.rational(3, 3),
                    coefficients="bogus")


class TestSpectral:
    def test_zero_class(self):
        for n in (1, 2, 3, 4):
            assert spectral_rank_check([0.0] * n) == 2 ** n

    def test_generic_nonzero(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert spectral_rank_check(c) == 0

    def test_refuses_dimension_above_cap(self, monkeypatch):
        # the cap is lowered so that a regression allocates nothing large
        assert floer.MAX_SPECTRAL_DIM == 12
        monkeypatch.setattr(floer, "MAX_SPECTRAL_DIM", 3)
        with pytest.raises(ValueError,
                           match="MAX_SPECTRAL_DIM = 3; got n = 4"):
            spectral_rank_check([1.0] * 4)
        assert spectral_rank_check([0.0] * 3) == 8

    def test_delta_k_vanishing(self):
        assert not delta_k_vanishing(2)
        assert delta_k_vanishing(4) and delta_k_vanishing(6)
        with pytest.raises(ValueError, match="odd"):
            delta_k_vanishing(3)
        with pytest.raises(ValueError):
            delta_k_vanishing(0)


class TestBalanced:
    def test_p2_novikov(self, corpus):
        sols = balanced_fibers_novikov(corpus["p2"])
        assert len(sols) == 1
        assert sols[0].point.coords == (3, 3)
        assert sols[0].partition.blocks == ((0, 1, 2),)

    def test_p1xp1_novikov_and_description(self, corpus):
        sols = balanced_fibers_novikov(corpus["p1xp1"])
        assert len(sols) == 1 and sols[0].point.coords == (1, 1)
        desc = describe_balanced(corpus["p1xp1"], sols[0])
        assert desc.factor_dims == (2, 2)
        assert "P^1" in desc.text

    def test_f1_f2_novikov_empty(self, corpus):
        assert balanced_fibers_novikov(corpus["f1"]) == []
        with pytest.warns(UnsupportedRegimeWarning):
            assert balanced_fibers_novikov(corpus["f2"]) == []

    def test_f2_certificate(self, corpus):
        p = corpus["f2"]
        sol, violations = equal_area_certificate(p, ((0, 1, 2, 3),))
        assert violations
        # with A = 2, B = 1, c = 2: the leftover offset is
        # (2 - c)/2 * A - B = -1
        assert any(v == Fraction(-1) for _, _, v in violations)

    def test_holonomy_p1(self, corpus):
        sols = balanced_fibers_with_holonomy(corpus["p1"])
        assert len(sols) == 2
        nus = sorted(s.nu.nu[0] for s in sols)
        assert nus[0] == pytest.approx(0.0, abs=1e-9)
        assert nus[1] == pytest.approx(math.pi, abs=1e-9)
        assert all(abs(s.point.coords[0] - 1.0) < 1e-9 for s in sols)

    def test_holonomy_search_diagnostics(self, corpus):
        # each of F_1's four critical points has one facet alone on its
        # lowest level, so none is balanced there
        p = corpus["f1"]
        cps = critical_points(build_superpotential(p), p)
        sols, tests = holonomy_balanced(p, cps)
        assert sols == [] and len(tests) == 4
        for cp, t in zip(cps, tests):
            assert t.fiber == cp.point.fiber and t.nu == cp.point.holonomy
            assert t.failed_level == 0 and len(t.partition.blocks[0]) == 1
            assert t.residual == pytest.approx(1.0)
            assert t.solution is None and "does not balance" in t.message

    def test_holonomy_merges_repeated_point(self, corpus):
        # a copy of P^2's first critical point moved by 1e-9 gives the same
        # balanced fiber, which is kept once
        p = corpus["p2"]
        cps = critical_points(build_superpotential(p), p)
        moved = cps[0]._replace(point=cps[0].point._replace(
            theta=tuple(t + 1e-9 for t in cps[0].point.theta)))
        sols, tests = holonomy_balanced(p, cps + [moved])
        assert len(sols) == 3 and len(tests) == 4
        assert sorted(t.solution for t in tests[:3]) == [0, 1, 2]
        assert tests[3].solution is None
        assert tests[3].message == ("merged with another balanced critical "
                                    "point")

    def test_describe_rejects_twisted(self, corpus):
        sols = balanced_fibers_with_holonomy(corpus["p1"])
        twisted = [s for s in sols if not s.nu.trivial][0]
        with pytest.raises(ValueError, match="trivial-holonomy"):
            describe_balanced(corpus["p1"], twisted)

    def test_rank_at_balanced_holonomy(self, corpus):
        for s in balanced_fibers_with_holonomy(corpus["p2"]):
            rank = hf_rank(corpus["p2"], s.point, s.nu,
                           coefficients="exp", tol=1e-8)
            assert rank == 4


# ---------------------------------------------------------------------------
# the exact-cover walk: the reference for the forced level partition and for
# the balanced fibers with holonomy


def _covers(n_facets: int, subsets: list[frozenset]):
    """Exact covers of {0..N-1} by the given blocks, deterministic order.

    Each step takes a block holding the least uncovered facet, so every
    cover comes out once, with its blocks ordered by their least element.
    """
    blocks = sorted({tuple(sorted(s)) for s in subsets})

    def rec(remaining: frozenset, chosen: tuple):
        if not remaining:
            yield chosen
            return
        lead = min(remaining)
        for b in blocks:
            if b[0] == lead and remaining.issuperset(b):
                yield from rec(remaining.difference(b), chosen + (b,))

    yield from rec(frozenset(range(n_facets)), ())


def _unit_feasible_subsets(gens) -> list[frozenset]:
    """Blocks that could support sum_j h_j v_j = 0 with unimodular h_j:
    no single |v_j^alpha| exceeds the sum of the others."""
    n = len(gens[0])
    out = []
    for size in range(2, len(gens) + 1):
        for sub in itertools.combinations(range(len(gens)), size):
            ok = True
            for i in range(n):
                mags = sorted(abs(gens[j][i]) for j in sub)
                if sum(mags) > 0 and mags[-1] > sum(mags[:-1]):
                    ok = False
                    break
            if ok:
                out.append(frozenset(sub))
    return out


def _holonomy_residual(p, blocks, vfloat, lam):
    """Row-wise residuals of the equal-area and per-block balancing
    equations at points x = (A, nu), one point per row, and their
    Jacobians: an equal-area row ell_i0 - ell_i has gradient
    (v_i0 - v_i, 0), and a block sum s = sum_j e^{i <nu, v_j>} v_j has
    ds/dnu = i sum_j e^{i <nu, v_j>} v_j v_j^T."""
    n = p.dim
    vv = vfloat[:, :, None] * vfloat[:, None, :]

    def fun(x):
        m = len(x)
        a, nu = x[:, :n], x[:, n:]
        ell = a @ vfloat.T - lam
        phase = np.exp(1j * (nu @ vfloat.T))
        cols, jac = [], []
        zero = np.zeros((m, n, n))
        for block in blocks:
            i0 = block[0]
            for i in block[1:]:
                cols.append(ell[:, i0] - ell[:, i])
                grad = np.concatenate((vfloat[i0] - vfloat[i], np.zeros(n)))
                jac.append(np.broadcast_to(grad, (m, 1, 2 * n)))
            idx = list(block)
            s = phase[:, idx] @ vfloat[idx]
            cols.extend(s.real.T)
            cols.extend(s.imag.T)
            ds = 1j * np.einsum("mj,jab->mab", phase[:, idx], vv[idx])
            jac.append(np.concatenate((zero, ds.real), axis=2))
            jac.append(np.concatenate((zero, ds.imag), axis=2))
        return np.column_stack(cols), np.concatenate(jac, axis=1)

    return fun


def _holonomy_covers(p):
    return list(_covers(p.num_facets, _unit_feasible_subsets(p.normals)))


def _reference_holonomy(p, covers, grid=6, residual_tol=1e-10,
                        dedup_tol=1e-6):
    """Balanced fibers with holonomy by the cover walk: each of the covers
    by unit-feasible blocks, its equal-area part solved exactly and the
    holonomy equations by least squares from a 2 pi / grid lattice of
    starts; converged interior points merged mod 2 pi and sorted. A cover
    whose unique equal-area solution is not interior is skipped."""
    n = p.dim
    vfloat = np.array(p.normals, dtype=float)
    lam = np.array([float(l) for l in p.offsets])
    verts = p.vertices()
    centroid = np.array(
        [float(sum(v[i] for v in verts)) / len(verts) for i in range(n)])
    nu_axis = [2 * math.pi * k / grid for k in range(grid)]
    nu_starts = np.array(list(itertools.product(nu_axis, repeat=n)))
    found = []
    for blocks in covers:
        sol, violations = equal_area_certificate(p, blocks)
        # a unique solution is the A of every point the polish can reach
        if violations or sol.unique and any(
                l <= 0 for l in p.ell(sol.particular)):
            continue
        a_start = (np.array([float(x) for x in sol.particular])
                   if sol.unique else centroid)
        x0 = np.hstack([np.tile(a_start, (len(nu_starts), 1)), nu_starts])
        x, resid = least_squares(_holonomy_residual(p, blocks, vfloat, lam),
                                 x0)
        for row in np.flatnonzero(resid <= residual_tol):
            a_sol = tuple(float(v) for v in x[row, :n])
            if all(float(l) > 0 for l in p.ell(a_sol)):
                found.append((a_sol, [wrap_angle(c)
                                      for c in x[row, n:].tolist()]))
    if not found:
        return []
    a_all, nu_all = zip(*found)
    out = []
    for i in dedup_mod_2pi(a_all, nu_all, dedup_tol):
        point = FiberPoint(a_all[i])
        out.append((a_all[i], tuple(float(x) for x in nu_all[i]),
                    floer._level_partition(p, point, tol=1e-7)))
    return sorted(out, key=lambda s: sort_key(s[0] + s[1], dedup_tol))


def _reference_novikov(p):
    """Every zero-sum cover of the facets, one exact equal-area solve each."""
    found = {}
    subsets = floer._zero_sum_subsets(p.normals)
    for blocks in _covers(p.num_facets, subsets):
        sol, violations = equal_area_certificate(p, blocks)
        if violations or sol.free:
            continue
        point = FiberPoint(tuple(sol.particular))
        if all(l > 0 for l in point.ell(p)):
            found.setdefault(point.coords, floer._level_partition(p, point))
    return sorted(found.items())


def _reference_refinement(gens, block):
    """Split a zero-sum block by searching, for each lead, the subsets of
    the rest smallest first, then lexicographically."""
    n = len(gens[0])
    remaining = list(block)
    out = []
    while remaining:
        lead = remaining[0]
        rest = [j for j in remaining if j != lead]
        chosen = None
        for size in range(1, len(rest) + 1):
            for sub in itertools.combinations(rest, size):
                cand = (lead,) + sub
                if all(sum(gens[j][i] for j in cand) == 0 for i in range(n)):
                    chosen = cand
                    break
            if chosen:
                break
        out.append(chosen or tuple(remaining))
        remaining = [j for j in remaining if j not in out[-1]]
    return out


# the nonzero vectors of {-1, 0, 1}^n (all primitive) and their zero-sum
# sets of at most n + 1 vectors, in dimensions 2 and 3
_UNIT_VECTORS = {n: [v for v in itertools.product((-1, 0, 1), repeat=n)
                     if any(v)] for n in (2, 3)}
_ZERO_SUM_BLOCKS = {n: [b for k in range(2, n + 2)
                        for b in itertools.combinations(vecs, k)
                        if not any(map(sum, zip(*b)))]
                    for n, vecs in _UNIT_VECTORS.items()}


@st.composite
def _planted_polytope(draw):
    """Zero-sum blocks of normals around a point A, each block at its own
    level over A, plus a few extra facets at other levels."""
    dim = draw(st.integers(2, 3))
    level = st.builds(Fraction, st.integers(1, 6), st.sampled_from((1, 2, 3)))
    a = draw(st.lists(st.builds(Fraction, st.integers(-3, 3),
                                st.sampled_from((1, 2))),
                      min_size=dim, max_size=dim))
    facets = {}  # normal -> level; a block reusing a normal is skipped
    for block in draw(st.lists(st.sampled_from(_ZERO_SUM_BLOCKS[dim]),
                               min_size=1, max_size=3)):
        lv = draw(level)
        if not facets.keys() & set(block):
            facets.update((v, lv) for v in block)
    for v in draw(st.lists(st.sampled_from(_UNIT_VECTORS[dim]), max_size=3)):
        facets.setdefault(v, draw(level))
    assume(len(facets) <= 12)
    text = f"dim {dim}\n" + "".join(
        "normal " + " ".join(map(str, v))
        + f" offset {sum(x * c for x, c in zip(a, v)) - lv}\n"
        for v, lv in facets.items())
    try:
        p = parse_polytope(text)
        normal_fan(p)
    except (PolytopeError, FanError):
        reject()
    return p


@settings(max_examples=150, deadline=None)
@given(_planted_polytope())
def test_forced_partition_matches_cover_walk(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnsupportedRegimeWarning)
        want = _reference_novikov(p)
        with mock.patch.object(floer, "equal_area_certificate",
                               wraps=equal_area_certificate) as calls:
            got = balanced_fibers_novikov(p)
    assert calls.call_count <= 1
    assert [(s.point.coords, s.partition) for s in got] == want
    for s in got:
        desc = describe_balanced(p, s)
        subs = [sub for block in s.partition.blocks
                for sub in _reference_refinement(p.normals, block)]
        levels = [-sum(p.offsets[j] for j in sub) for sub in subs]
        assert desc.factor_dims == tuple(len(sub) for sub in subs)
        assert desc.factor_levels == tuple(levels)
        assert desc.text == " x ".join(
            f"Clifford torus of P^{len(sub) - 1} at level {lv}"
            for sub, lv in zip(subs, levels)) + (
            f", quotient by a rank-{p.num_facets - p.dim - len(subs)} torus")


def _circ(x, y):
    d = abs(x - y) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def test_holonomy_matches_cover_walk():
    """The critical points that pass the per-level test against the cover
    walk, on the planted polytopes. An example whose Newton search warns
    "found k of K" is skipped: the per-level test is only as complete as
    the search."""
    ran, skipped = [], []

    @settings(max_examples=40, deadline=None)
    @given(_planted_polytope())
    def check(p):
        covers = _holonomy_covers(p)
        # the reference polishes 6^n starts on each cover, up to 0.3 s a
        # cover in dimension 3, so that examples with many covers would
        # take minutes
        assume(len(covers) <= 16)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            got = balanced_fibers_with_holonomy(p)
        if any("Kushnirenko count" in str(w.message) for w in rec):
            skipped.append(p)
            return
        ran.append(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnsupportedRegimeWarning)
            want = _reference_holonomy(p, covers)
        assert len(got) == len(want)
        for s, (a, nu, part) in zip(got, want):
            assert s.partition.blocks == part.blocks
            assert max(abs(x - y) for x, y in zip(s.point.coords, a)) < 1e-8
            assert max(_circ(x, y) for x, y in zip(s.nu.nu, nu)) < 1e-8

    check()
    assert len(skipped) <= max(1, len(ran) // 10), (len(skipped), len(ran))


# ---------------------------------------------------------------------------
# exact covers against brute-force set partitions


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


@st.composite
def _block_family(draw):
    """Blocks over {0..N-1}: one planted partition plus random extras."""
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    planted = [frozenset(j for j in range(n) if labels[j] == k)
               for k in set(labels)]
    extras = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1),
                           max_size=12))
    return n, list(dict.fromkeys(draw(st.permutations(planted + extras))))


@settings(max_examples=200, deadline=None)
@given(_block_family())
def test_covers_match_set_partitions(data):
    n, blocks = data
    got = list(_covers(n, blocks))
    assert len(got) == len(set(got))
    # blocks sorted inside and ordered by their least element
    assert all(list(cover) == sorted(cover, key=lambda b: b[0])
               and all(list(b) == sorted(b) for b in cover) for cover in got)
    allowed = set(blocks)
    want = {tuple(sorted(tuple(sorted(b)) for b in part))
            for part in _set_partitions(list(range(n)))
            if all(frozenset(b) in allowed for b in part)}
    assert set(got) == want


# ---------------------------------------------------------------------------
# NovikovVector.is_zero against the term-by-term loop it replaced


def _reference_is_zero(d, tol):
    for t in d.merged(tol).terms:
        if d.exact:
            if any(v != 0 for v in t.vector):
                return False
        elif any(abs(complex(v)) > tol for v in t.vector):
            return False
    return True


@st.composite
def _novikov_vector(draw):
    exact = draw(st.booleans())
    n = draw(st.integers(1, 3))
    tol = draw(st.sampled_from((1e-10, 1e-9, 1e-6)))
    if exact:
        coeff = st.integers(-2, 2)
        level = st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3)))
        entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
    else:
        coeff = st.sampled_from((1.0 + 0j, -1.0 + 0j, 1j, 0.5 + 0j))
        # levels apart, equal, and a fraction of tol apart
        level = st.sampled_from((0.5, 1.0, 1.0 + 0.4 * tol, 3.0))
        # entries near tol, so that the sums land on both sides of it
        entry = st.sampled_from((0.0, 1.0)) | st.floats(-3 * tol, 3 * tol)
    terms = draw(st.lists(
        st.builds(NovikovTerm, coeff, level, st.integers(1, 2),
                  st.lists(entry, min_size=n, max_size=n).map(tuple)),
        max_size=6))
    return NovikovVector(tuple(terms), exact), tol


@settings(max_examples=300, deadline=None)
@given(_novikov_vector())
def test_is_zero_matches_term_loop(data):
    d, tol = data
    assert d.is_zero(tol) == _reference_is_zero(d, tol)
