import math

import numpy as np
import pytest

from toricfloer import kernels
from toricfloer.oracle import PROBE_T, balanced_oracle, grid_scan

from conftest import corpus_polytope


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
    # three fiber rows per chunk: 17 rows run in six chunks, the last short
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES",
                        3 * p_re.shape[0] * v.shape[1])
    got = kernels.grid_min_residual(ell, p_re, p_im, v, t)
    want = _reference(ell, p_re, p_im, v, t)
    assert np.allclose(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[0], whole[0])
    assert np.array_equal(got[1], whole[1])


def test_grid_scan_finds_p2_center():
    p = corpus_polytope("p2")
    pts, nus, res = grid_scan(p, n_a=41, n_nu=12)
    best = pts[np.argmin(res)]
    assert np.allclose(best, [3.0, 3.0], atol=0.2)


def test_oracle_candidates_p1():
    p = corpus_polytope("p1")
    cands = balanced_oracle(p, n_a=101, n_nu=16)
    assert len(cands) == 2
    assert all(abs(c.point[0] - 1.0) < 1e-8 for c in cands)
    nus = sorted(c.nu[0] for c in cands)
    assert nus[0] == pytest.approx(0.0, abs=1e-7)
    assert nus[1] == pytest.approx(math.pi, abs=1e-7)
