import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer import kernels, oracle
from toricfloer.floer import UnsupportedRegimeWarning
from toricfloer.lattice import Polytope, PolytopeError, parse_polytope
from toricfloer.mirror import balanced_fibers_with_holonomy
from toricfloer.oracle import (MAX_GRID_CELLS, PROBE_T, OracleCandidate,
                               balanced_oracle, grid_scan)

from conftest import DATA, assert_record, corpus_polytope
from test_mirror import HARD_INPUTS


def _reference(ell, p_re, p_im, v, t):
    """Slow direct evaluation of the grid residual, independent of the
    production kernel."""
    phases = p_re + 1j * p_im
    minres = np.empty(ell.shape[0])
    argnu = np.empty(ell.shape[0], dtype=np.int64)
    for a in range(ell.shape[0]):
        best, bi = math.inf, 0
        for b in range(phases.shape[0]):
            worst = 0.0
            for tk in t:
                s = ((tk ** ell[a]) * phases[b]) @ v
                worst = max(worst, float(np.sum(np.abs(s) ** 2)))
            if worst < best:
                best, bi = worst, b
        minres[a] = math.sqrt(best)
        argnu[a] = bi
    return minres, argnu


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(0)
    n, nfac = 2, 4
    v = rng.integers(-2, 3, size=(nfac, n)).astype(float)
    ell = rng.uniform(0.1, 3.0, size=(17, nfac))
    nu = rng.uniform(0, 2 * math.pi, size=(13, n))
    phase = np.exp(1j * (nu @ v.T))
    t = np.array(PROBE_T)
    return ell, phase.real, phase.imag, v, t


def test_fallback_matches_reference(small_problem):
    ell, p_re, p_im, v, t = small_problem
    got = kernels.grid_min_residual(ell, p_re, p_im, v, t)
    want = _reference(ell, p_re, p_im, v, t)
    assert np.allclose(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_kernel_chunks_match_reference(small_problem, monkeypatch):
    ell, p_re, p_im, v, t = small_problem
    whole = kernels.grid_min_residual(ell, p_re, p_im, v, t)
    # two fiber rows per chunk: 17 rows run in nine chunks, the last short
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES",
                        3 * p_re.shape[0] * v.shape[1])
    got = kernels.grid_min_residual(ell, p_re, p_im, v, t)
    want = _reference(ell, p_re, p_im, v, t)
    assert np.allclose(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[0], whole[0])
    assert np.array_equal(got[1], whole[1])


def _longdouble_r2(ell, p_re, p_im, v, t):
    """Squared residual max_t ||sum_j p_j t^ell_j v_j||^2 of every (fiber,
    holonomy) cell in long double, with the rounding scale
    max_t sum_jl |<v_j, v_l>| w_j w_l of each fiber row."""
    ld = np.longdouble
    ell, v = ell.astype(ld), v.astype(ld)
    p_re, p_im = p_re.astype(ld), p_im.astype(ld)
    gram = np.abs(v @ v.T)
    r2 = np.zeros((ell.shape[0], p_re.shape[0]), dtype=ld)
    scale = np.zeros(ell.shape[0], dtype=ld)
    for tk in t:
        w = ld(tk) ** ell                                     # (M_A, N)
        s_re = np.einsum("an,bn,ni->abi", w, p_re, v)
        s_im = np.einsum("an,bn,ni->abi", w, p_im, v)
        r2 = np.maximum(r2, (s_re ** 2 + s_im ** 2).sum(axis=2))
        scale = np.maximum(scale, np.einsum("an,nm,am->a", w, gram, w))
    return r2, scale


@st.composite
def _lattice_problem(draw):
    n = draw(st.integers(1, 3))
    nfac = draw(st.integers(n + 1, 5))
    m = draw(st.integers(2, 5))
    v = np.array(draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=nfac, max_size=nfac)), dtype=float)
    ell = np.array(draw(st.lists(
        st.lists(st.floats(0.05, 3.0), min_size=nfac, max_size=nfac),
        min_size=1, max_size=4)))
    # every holonomy on the 2 pi / m lattice: symmetry orbits tie exactly
    axes = np.meshgrid(*([np.arange(m) * (2 * math.pi / m)] * n))
    nu = np.stack([g.ravel() for g in axes], axis=-1)
    phase = np.exp(1j * (nu @ v.T))
    return ell, phase.real, phase.imag, v, np.array(PROBE_T)


@settings(max_examples=200, deadline=None)
@given(_lattice_problem())
def test_kernel_matches_longdouble_with_lowest_tied_index(problem):
    minres, argnu = kernels.grid_min_residual(*problem)
    r2, scale = _longdouble_r2(*problem)
    best = r2.min(axis=1)
    # compared as r^2: the square root amplifies rounding near 0
    assert np.all(np.abs(minres.astype(np.longdouble) ** 2 - best)
                  <= 1e-13 * scale)
    tied = r2 <= (best + 1e-13 * scale)[:, None]
    assert np.array_equal(argnu, tied.argmax(axis=1))


def test_exact_balanced_cell_reads_zero():
    # n_a=101 puts A = 1, the balanced fiber of P^1, on the grid; nu = 0
    # is the first holonomy cell
    p = corpus_polytope("p1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts, nus, res = grid_scan(p, n_a=101, n_nu=16)
    row = np.argmin(np.abs(pts[:, 0] - 1.0))
    assert pts[row, 0] == pytest.approx(1.0, abs=1e-15)
    assert res[row] <= 1e-7
    assert nus[row, 0] == 0.0


def test_balanced_rows_clamp_rounding():
    # P^3 with all four facet distances equal and nu = 0 is balanced; for
    # some distances the quadratic form rounds below 0 at every probe
    v = np.array(corpus_polytope("p3").normals, dtype=float)
    ell = np.repeat(np.linspace(0.05, 3.0, 400)[:, None], 4, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minres, argnu = kernels.grid_min_residual(
            ell, np.ones((1, 4)), np.zeros((1, 4)), v, np.array(PROBE_T))
    assert np.all(minres <= 1e-7)
    assert not argnu.any()


def test_one_row_chunks_equal_whole_run(monkeypatch):
    p = corpus_polytope("p2")
    whole = grid_scan(p, n_a=41, n_nu=12)
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES", 1)
    rows = grid_scan(p, n_a=41, n_nu=12)
    for a, b in zip(whole, rows):
        assert np.array_equal(a, b)


def test_grid_limits():
    for sizes in ({"n_a": 0}, {"n_nu": 0}):
        with pytest.raises(ValueError, match="grid sizes must be positive"):
            balanced_oracle(corpus_polytope("p2"), **sizes)
    # (P^1)^4 at the default grids: 32^4 x 16^4 cells
    p14 = parse_polytope("dim 4\n" + "".join(
        f"normal {' '.join(str(s if j == i else 0) for j in range(4))} "
        f"offset {o}\n" for i in range(4) for s, o in ((1, 0), (-1, -1))))
    with pytest.raises(PolytopeError) as err:
        balanced_oracle(p14)
    assert f"limited to {MAX_GRID_CELLS} grid cells" in str(err.value)
    assert f"needs {32 ** 4 * 16 ** 4}" in str(err.value)


def test_grid_scan_finds_p2_center():
    p = corpus_polytope("p2")
    pts, nus, res = grid_scan(p, n_a=41, n_nu=12)
    best = pts[np.argmin(res)]
    assert np.allclose(best, [3.0, 3.0], atol=0.2)


def test_oracle_candidate_is_a_record():
    assert_record(lambda: OracleCandidate((1.0,), (0.0,), 1e-9), "nu")


def test_oracle_candidates_p1():
    p = corpus_polytope("p1")
    cands = balanced_oracle(p, n_a=101, n_nu=16)
    assert len(cands) == 2
    assert all(abs(c.point[0] - 1.0) < 1e-8 for c in cands)
    nus = sorted(c.nu[0] for c in cands)
    assert nus[0] == pytest.approx(0.0, abs=1e-7)
    assert nus[1] == pytest.approx(math.pi, abs=1e-7)


def _flat_boxes(p, n_a):
    """The flat reference of grid_scan's bisection: the centres (n_a^n, n)
    of every box of oracle._grids' tiling in meshgrid order, their
    half-widths r and the kernels.box_survivors mask over all of them."""
    v, lam = oracle._facets(p)
    lo, h, r, n_a, _ = oracle._grids(p, n_a, 1)
    axes = [lo[i] + h[i] * np.arange(1, 2 * n_a, 2) for i in range(p.dim)]
    centres = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
    return centres, r, kernels.box_survivors(centres, r, v, lam,
                                             np.array(PROBE_T))


def _full_grid_scan(p, n_a, n_nu):
    """grid_scan over every cell of the holonomy lattice, as it ran before
    one cell of each conjugate pair was dropped, at the surviving box
    centres of the flat pass: the reference."""
    v = np.array(p.normals, dtype=float)
    lam = np.array([float(l) for l in p.offsets])
    centres, _, mask = _flat_boxes(p, n_a)
    a_grid = centres[mask]
    nu_axis = np.arange(n_nu) * (2 * math.pi / n_nu)
    nu_grid = np.stack(
        [g.ravel() for g in np.meshgrid(*([nu_axis] * p.dim))], axis=-1)
    ell = a_grid @ v.T - lam
    phase = np.exp(1j * (nu_grid @ v.T))
    minres, argnu = kernels.grid_min_residual(
        ell, phase.real, phase.imag, v, np.array(PROBE_T))
    return a_grid, nu_grid[argnu], minres, ell


def _rounding_scale(ell, v):
    """The rounding scale of each fiber row, from _longdouble_r2."""
    one = np.ones((1, v.shape[0]))
    return _longdouble_r2(ell, one, 0 * one, v, np.array(PROBE_T))[1]


def _assert_scan_equals_full(p, n_a, n_nu):
    pts, nus, res = grid_scan(p, n_a=n_a, n_nu=n_nu)
    pts_f, nus_f, res_f, ell = _full_grid_scan(p, n_a, n_nu)
    scale = _rounding_scale(ell, np.array(p.normals, dtype=float))
    assert np.array_equal(pts, pts_f)
    assert np.all(np.abs(res ** 2 - res_f ** 2) <= 1e-13 * scale)
    assert np.array_equal(nus, nus_f)


@st.composite
def _box_polytope(draw):
    # the box [0, L]^n cut by up to three half-spaces through points near
    # its centre, so the polytope is bounded with nonempty interior
    n = draw(st.integers(1, 3))
    size = draw(st.integers(2, 6))
    rows = [(tuple(int(i == k) * s for i in range(n)), o)
            for k in range(n) for s, o in ((1, 0), (-1, -size))]
    for _ in range(draw(st.integers(0, 3))):
        w = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        g = math.gcd(*w)
        if not g or any(r[0] == tuple(c // g for c in w) for r in rows):
            continue
        w = tuple(c // g for c in w)
        depth = Fraction(draw(st.integers(1, 4 * size)), 4)
        rows.append((w, Fraction(sum(w) * size, 2) - depth))
    return Polytope(n, tuple(rows)), draw(st.integers(1, 6)), draw(
        st.integers(1, 9))


@settings(max_examples=150, deadline=None)
@given(_box_polytope())
def test_grid_scan_matches_full_grid(problem):
    _assert_scan_equals_full(*problem)


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1xp1", "f1", "f2",
                                  "f3"])
def test_grid_scan_matches_full_grid_on_corpus(name):
    p = corpus_polytope(name)
    for n_a, n_nu in ((9, 12), (8, 7)) if p.dim <= 2 else ((5, 6), (4, 5)):
        _assert_scan_equals_full(p, n_a, n_nu)


@settings(max_examples=200, deadline=None)
@given(_lattice_problem())
def test_conjugate_half_keeps_the_full_minimum(problem):
    # the kernel on the kept cells against the kernel on the whole lattice
    ell, p_re, p_im, v, t = problem
    n = v.shape[1]
    m = round(len(p_re) ** (1 / n))
    half = oracle._holonomy_grid(n, m)
    phase = np.exp(1j * (half @ v.T))
    minres, argnu = kernels.grid_min_residual(
        ell, phase.real, phase.imag, v, t)
    full_res, full_nu = kernels.grid_min_residual(*problem)
    nu_axis = np.arange(m) * (2 * math.pi / m)
    full = np.stack([g.ravel() for g in np.meshgrid(*([nu_axis] * n))],
                    axis=-1)
    scale = _rounding_scale(ell, v)
    assert np.all(np.abs(minres ** 2 - full_res ** 2) <= 1e-13 * scale)
    assert np.array_equal(half[argnu], full[full_nu])


@pytest.mark.parametrize("name, n_nu, cells", [
    ("p1", 48, 25), ("p2", 48, 1154), ("p3", 16, 2052), ("p2", 7, 25)])
def test_grids_keep_one_cell_per_conjugate_pair(name, n_nu, cells):
    # (m^n + 2^n) / 2 cells for even m, (m^n + 1) / 2 for odd m
    p = corpus_polytope(name)
    n = p.dim
    kept = oracle._grids(p, 3, n_nu)[-1]
    assert len(kept) == cells
    assert not kept[0].any()
    nu_axis = np.arange(n_nu) * (2 * math.pi / n_nu)
    full = np.stack([g.ravel() for g in np.meshgrid(*([nu_axis] * n))],
                    axis=-1)
    index = {tuple(k): i for i, k in enumerate(
        np.rint(full * n_nu / (2 * math.pi)).astype(int).tolist())}
    kept_index = [index[tuple(k)] for k in
                  np.rint(kept * n_nu / (2 * math.pi)).astype(int).tolist()]
    assert kept_index == sorted(kept_index)
    kept_index = set(kept_index)
    for k, i in index.items():
        j = index[tuple((-x) % n_nu for x in k)]
        # one cell of each pair, the lower-index one
        assert (i in kept_index) == (i <= j)
        assert (i in kept_index) or (j in kept_index and j < i)


def _box_points(c, r, v, lam, rng):
    """Points of each box [c - r, c + r] in long double, (B, m, n), and a
    mask of those inside their box: the centre, the corners, four random
    points, and all of these moved to 1e-9, 1e-6 and 1e-3 inside each
    facet, which stay in the box only where it straddles the facet."""
    b, n = c.shape
    signs = np.array(list(itertools.product((-1, 1), repeat=n)))
    u = np.vstack([np.zeros((1, n)), signs])[None] * np.ones((b, 1, 1))
    u = np.concatenate([u, rng.uniform(-1, 1, (b, 4, n))], axis=1)
    base = c[:, None] + r * u.astype(np.longdouble)
    pts = [base]
    for vj, lj in zip(v, lam):
        dist = base @ vj - lj
        for d in (1e-9, 1e-6, 1e-3):
            pts.append(base - ((dist - d) / (vj @ vj))[..., None] * vj)
    pts = np.concatenate(pts, axis=1)
    return pts, (np.abs(pts - c[:, None]) <= r).all(axis=2)


def _bisection_calls(p, n_a):
    """grid_scan's surviving centres at n_a, and the (centres, r, mask) of
    every call its bisection makes to kernels.box_survivors, coarsest
    level first."""
    calls = []

    def record(centres, r, v, lam, t):
        mask = kernels.box_survivors(centres, r, v, lam, t)
        calls.append((centres, r, mask))
        return mask

    saved = oracle.box_survivors
    oracle.box_survivors = record
    try:
        survivors = grid_scan(p, n_a, 1)[0]
    finally:
        oracle.box_survivors = saved
    return survivors, calls


def _assert_exclusions_sound(p, n_a, rng, boxes=100):
    """At sample points of up to `boxes` excluded boxes of the flat pass
    and of each level of grid_scan's bisection, in long double: a box
    excluded as outside holds no point of the open polytope, and for
    every other one the probe and coordinate of its largest bound
    max_j (t^l_j^+ + t^l_j^-) |v_ja| - sum_k t^l_k^- |v_ka| give a
    positive bound, at most |s_a| at every point and a random nu."""
    centres, r, mask = _flat_boxes(p, n_a)
    for c, r_level, keep in [(centres, r, mask)] + _bisection_calls(
            p, n_a)[1]:
        out = c[~keep]
        if len(out) > boxes:
            out = out[rng.choice(len(out), boxes, replace=False)]
        if len(out):
            _assert_excluded_soundly(p, out, r_level, rng)


def _assert_excluded_soundly(p, out, r, rng):
    """The long-double check of _assert_exclusions_sound on the excluded
    boxes [c - r, c + r], c a row of out."""
    ld = np.longdouble
    v, lam = oracle._facets(p)
    t = np.array(PROBE_T)
    v, lam, t = v.astype(ld), lam.astype(ld), t.astype(ld)
    c, r = out.astype(ld), r.astype(ld)
    vabs = np.abs(v)
    ell_c = c @ v.T - lam                                  # (B, N)
    spread = vabs @ r
    up, dn = ell_c + spread, ell_c - spread
    w_lo = t[None, :, None] ** up[:, None, :]              # (B, K, N)
    w_hi = t[None, :, None] ** dn[:, None, :]
    bound = (((w_lo + w_hi)[..., None] * vabs).max(axis=2)
             - w_hi @ vabs).reshape(len(c), -1)            # (B, K n)
    tol = 64 * np.finfo(ld).eps
    outside = (up <= tol * (np.abs(c) @ vabs.T + np.abs(lam))).any(axis=1)
    assert (outside | (bound.max(axis=1) > 0)).all()
    pts, inside = _box_points(c, r, v, lam, rng)
    ell = pts @ v.T - lam                                  # (B, m, N)
    scale = np.abs(pts) @ vabs.T + np.abs(lam)
    assert ((ell <= tol * scale).any(axis=2) | ~inside)[outside].all()
    k, a = np.divmod(bound.argmax(axis=1), v.shape[1])
    theta = rng.uniform(0, 2 * math.pi, pts.shape).astype(ld) @ v.T
    w = t[k][:, None, None] ** ell                         # (B, m, N)
    va = v[:, a].T[:, None, :]                             # (B, 1, N)
    s = np.hypot((w * np.cos(theta) * va).sum(axis=2),
                 (w * np.sin(theta) * va).sum(axis=2))
    slack = tol * (w * np.abs(va)).sum(axis=2)
    assert ((s >= bound.max(axis=1)[:, None] - slack) | ~inside)[
        ~outside].all()


def _assert_bisection_within_flat(p, n_a):
    """grid_scan's surviving centres are flat centres, bit for bit, that
    the flat mask keeps, in meshgrid order and C-contiguous; each box its
    bisection tests, s = 2^(L - l) cells wide at level l, covers the s^n
    exact cells it spans, checked in Fractions. Returns the surviving
    centres of the bisection and of the flat pass."""
    centres, r, mask = _flat_boxes(p, n_a)
    survivors, calls = _bisection_calls(p, n_a)
    assert survivors.flags.c_contiguous
    index = {row: i for i, row in enumerate(map(tuple, centres.tolist()))}
    got = [index[row] for row in map(tuple, survivors.tolist())]
    assert got == sorted(got) and mask[got].all()
    lo, h, _, n_a, _ = oracle._grids(p, n_a, 1)
    verts = p.vertices()
    lo_e = [min(x[i] for x in verts) for i in range(p.dim)]
    h_e = [(max(x[i] for x in verts) - lo_e[i]) / (2 * n_a)
           for i in range(p.dim)]
    depth = (n_a - 1).bit_length()
    assert len(calls) == depth + 1
    for level, (c, r_level, _) in enumerate(calls):
        s = 2 ** (depth - level)
        assert np.array_equal(r_level, s * r)
        j = np.rint((c - lo) / (2 * s * h) - 0.5).astype(int)
        for row, first in zip(c.tolist(), (j * s).tolist()):
            for i, (x, k) in enumerate(zip(row, first)):
                x, w = Fraction(x), Fraction(float(r_level[i]))
                assert x - w <= lo_e[i] + 2 * k * h_e[i]
                assert lo_e[i] + 2 * (k + s) * h_e[i] <= x + w
    return survivors, centres[mask]


@settings(max_examples=100, deadline=None)
@given(_box_polytope(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_excluded_boxes_hold_no_balanced_fiber(problem, factor, seed):
    p, n_a, _ = problem
    rng = np.random.default_rng(seed)
    _assert_exclusions_sound(p, n_a * factor, rng)
    _assert_bisection_within_flat(p, n_a * factor)
    # the mask does not depend on the chunks
    v, lam = oracle._facets(p)
    centres, r, whole = _flat_boxes(p, n_a * factor)
    saved = kernels.CHUNK_ENTRIES
    kernels.CHUNK_ENTRIES = 1
    try:
        rows = kernels.box_survivors(centres, r, v, lam, np.array(PROBE_T))
    finally:
        kernels.CHUNK_ENTRIES = saved
    assert np.array_equal(whole, rows)


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1xp1", "f1", "f2",
                                  "f3"])
def test_excluded_boxes_hold_no_balanced_fiber_on_corpus(name):
    # the criterion-9 grids
    p = corpus_polytope(name)
    _assert_exclusions_sound(p, 120 if p.dim <= 2 else 32,
                             np.random.default_rng(0))


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1xp1", "f1", "f2",
                                  "f3"] + list(HARD_INPUTS))
def test_bisection_keeps_the_flat_survivors(name):
    # at n_a = 40 and at the criterion-9 grids
    p = (corpus_polytope(name) if name not in HARD_INPUTS
         else parse_polytope(HARD_INPUTS[name][0]))
    for n_a in (40, 120 if p.dim <= 2 else None):
        survivors, flat = _assert_bisection_within_flat(p, n_a)
        assert np.array_equal(survivors, flat)


@pytest.mark.parametrize("chunk_entries", [1, kernels.CHUNK_ENTRIES])
def test_holonomy_free_bound_below_balanced_rows(chunk_entries,
                                                 monkeypatch):
    # the rows of test_balanced_rows_clamp_rounding, where the computed
    # r^2 rounds below 0 for some distances: all four facet distances of
    # P^3 of size 4 s equal s at A = (s, s, s), a balanced fiber, so the
    # holonomy-free bound must keep every box around it, in any chunking
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES", chunk_entries)
    v = np.array(corpus_polytope("p3").normals, dtype=float)
    t = np.array(PROBE_T)
    shifts = np.vstack([np.zeros(3), np.eye(3) / 2, -np.eye(3) / 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in np.linspace(0.05, 3.0, 400):
            lam = np.array([0.0, 0.0, 0.0, -4 * s])
            for r in (0.0, 1e-12, 1e-3, s / 2):
                centres = s + r * shifts
                assert kernels.box_survivors(centres, np.full(3, r), v,
                                             lam, t).all()


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1xp1", "f1", "f2",
                                  "f3"])
def test_every_balanced_fiber_lies_in_a_surviving_box(name):
    # at the criterion-9 grids, the holonomy pipeline's solutions and the
    # recorded oracle candidates; f3 has neither and no surviving box,
    # which proves that it has no balanced fiber at any holonomy
    p = corpus_polytope(name)
    grids = (120, 48) if p.dim <= 2 else (None, None)
    centres, _, _ = grid_scan(p, *grids)
    r = oracle._grids(p, *grids)[2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnsupportedRegimeWarning)
        fibers = [s.point.as_floats() for s in
                  balanced_fibers_with_holonomy(p)]
    recorded = json.loads((DATA / "oracle_corpus.json").read_text())[name]
    for a in fibers + [row["point"] for row in recorded]:
        assert (np.abs(centres - a) <= r).all(axis=1).any(), a
    assert (len(centres) == 0) == (name == "f3")
    if name == "f3":
        assert not fibers and not recorded


def test_no_surviving_box_skips_the_polish(monkeypatch):
    def polish(fun, x0):
        raise AssertionError("polished")

    monkeypatch.setattr(oracle, "least_squares", polish)
    assert balanced_oracle(corpus_polytope("f3"), n_a=120, n_nu=48) == []


def _seeds_by_pairs(a_grid, nu_best, minres, polish_top):
    """The seed loop that compared each cell with every kept seed in turn,
    kept as the reference for oracle._seeds."""
    order = np.argsort(minres, kind="stable")
    seeds = []
    for s in order[:10 * polish_top]:
        a = a_grid[s]
        if any(np.max(np.abs(a - np.array(prev))) < 0.5 for prev, _ in seeds):
            continue
        seeds.append((tuple(a), tuple(nu_best[s])))
        if len(seeds) >= polish_top:
            break
    return seeds


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 12), st.integers(1, 120),
       st.integers(0, 2 ** 32 - 1))
def test_seeds_match_pairwise_loop(n, polish_top, m, seed):
    rng = np.random.default_rng(seed)
    # clustered points on a 0.25 grid, so distances of exactly 0.5 occur,
    # and residuals with ties
    a_grid = rng.integers(0, 12, size=(m, n)) * 0.25
    nu_best = rng.uniform(0, 2 * math.pi, size=(m, n))
    minres = rng.integers(0, 5, size=m) * 0.1
    assert (oracle._seeds(a_grid, nu_best, minres, polish_top)
            == _seeds_by_pairs(a_grid, nu_best, minres, polish_top))


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "f1"])
def test_seeds_match_pairwise_loop_on_corpus(name):
    p = corpus_polytope(name)
    scan = grid_scan(p, n_a=30, n_nu=8)
    assert oracle._seeds(*scan, 40) == _seeds_by_pairs(*scan, 40)


def test_seeds_take_ties_in_index_order():
    # 1 000 cells a unit apart, so none is near another, with three
    # residual values: equal residuals seed in index order
    rng = np.random.default_rng(0)
    a_grid = np.arange(1000.0)[:, None]
    nu_best = rng.uniform(0, 2 * math.pi, size=(1000, 1))
    minres = rng.integers(0, 3, size=1000) * 0.1
    seeds = oracle._seeds(a_grid, nu_best, minres, 100)
    want = [i for v in (0.0, 0.1, 0.2) for i in np.flatnonzero(minres == v)]
    assert [int(a[0]) for a, _ in seeds] == want[:100]


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1xp1", "f1", "f2",
                                  "f3"])
def test_residual_jacobian_matches_central_differences(name):
    p = corpus_polytope(name)
    n = p.dim
    verts = np.array(p.vertices(), dtype=float)
    rng = np.random.default_rng(0)
    x = np.hstack([rng.uniform(verts.min(axis=0), verts.max(axis=0),
                               (20, n)),
                   rng.uniform(0, 2 * math.pi, (20, n))])
    fun = oracle._residual_fun(p)
    r, jac = fun(x)
    assert r.shape == (20, 6 * n) and jac.shape == (20, 6 * n, 2 * n)
    h = 1e-5
    diff = np.stack([(fun(x + h * e)[0] - fun(x - h * e)[0]) / (2 * h)
                     for e in np.eye(2 * n)], axis=2)
    scale = np.abs(jac).max(axis=(1, 2))
    assert (np.abs(jac - diff).max(axis=(1, 2)) <= 1e-6 * scale).all()


# balanced_oracle's candidate counts on the hard inputs at n_a = 40,
# n_nu = 16. Many are spurious: acceptance is an absolute residual
# (ROADMAP item 9), so points whose weights underflow pass. All 96 on
# p2-5000 lie hundreds of units from its one fiber (5000/3, 5000/3);
# the 24 on p2xp1-5000 sit where their seeds started, at z = 2437.5 and
# 2562.5; blowup-31-291 holds (31, 31), nu = (pi, pi), whose level-229
# facet has no weight in double precision.
@pytest.mark.parametrize("name, count", [
    ("f1-300-1000", 16), ("f1-1000-1500", 4), ("blowup-100-300", 4),
    ("blowup-31-291", 4), ("p2-5000", 96), ("f5", 0), ("f4", 0),
    ("p2xp1-5000", 24), ("planted-3fold", 0), ("strip-290-300", 264)])
def test_oracle_counts_on_hard_inputs(name, count):
    p = parse_polytope(HARD_INPUTS[name][0])
    assert len(balanced_oracle(p, n_a=40, n_nu=16)) == count


def test_oracle_candidates_match_recorded_corpus():
    # balanced_oracle at the criterion-9 grids, recorded from an earlier
    # implementation; within 1e-12, not by bits, as BLAS rounds
    # differently on other machines
    want = json.loads((DATA / "oracle_corpus.json").read_text())
    for name, rows in want.items():
        p = corpus_polytope(name)
        grids = {"n_a": 120, "n_nu": 48} if p.dim <= 2 else {}
        got = balanced_oracle(p, **grids)
        assert len(got) == len(rows), name
        for cand, row in zip(got, rows):
            assert np.abs(np.subtract(cand.point, row["point"])).max() <= 1e-12
            assert all(abs(math.remainder(x - y, 2 * math.pi)) <= 1e-12
                       for x, y in zip(cand.nu, row["nu"]))


def test_acceptance_keeps_interior_points_only(monkeypatch):
    # P^2 is x >= 0, y >= 0, x + y <= 9, and every polished row reads
    # residual 0: a point outside and points within 1e-9 of a facet are
    # no candidates
    rows = np.array([[-1.0, 3.0, 0.0, 0.0],
                     [5e-10, 3.0, 0.0, 0.0],
                     [3.0, 6.0 - 5e-10, 0.0, 0.0],
                     [3.0, 3.0, 0.5, 0.0]])
    monkeypatch.setattr(oracle, "least_squares",
                        lambda fun, x0: (rows, np.zeros(len(rows))))
    cands = balanced_oracle(corpus_polytope("p2"), n_a=20, n_nu=8)
    assert cands == [OracleCandidate((3.0, 3.0), (0.5, 0.0), 0.0)]
