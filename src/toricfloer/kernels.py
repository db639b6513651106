"""The grid oracle's hot kernel: one real GEMM per chunk of fiber rows.

``oracle.grid_scan`` passes one holonomy of each conjugate pair
{nu, -nu mod 2 pi}, the one of lower lattice index; the residual is even
in nu, and the lowest-tied-index rule below then gives the full lattice's
answer.
"""

from __future__ import annotations

import numpy as np

# float64 entries in each chunk's r^2 block (chunk rows * K * M_nu), about
# 0.5 MB, so a chunk's temporaries stay in a core's L2 cache; on a 2 MB-L2
# Xeon the corpus scans ran about 20% slower with 8x larger chunks
CHUNK_ENTRIES = 62_500


def grid_min_residual(ell, p_re, p_im, v, t):
    """Per fiber-grid-point minimum over the holonomy grid of the balanced
    residual max_t || sum_j e^{i nu.v_j} t^{ell_j} v_j ||.

    ell: (M_A, N) facet distances; p_re/p_im: (M_nu, N) holonomy phase
    factors; v: (N, n) generators; t: (K,) probe values in (0, 1).
    Returns (min_residual[M_A], argmin_nu[M_A]).

    With w_j = t^{ell_j} and the Gram matrix G = v v^T, the squared
    residual is the quadratic form sum_{j<=l} c_jl w_j w_l Re(conj(p_j) p_l)
    with c_jj = G_jj and c_jl = 2 G_jl. The phase products form a
    (P x M_nu) table, P = N(N+1)/2, built once per call; each chunk of
    fiber rows, with all K probes folded into the rows, is one
    (c*K x P) @ (P x M_nu) real matrix product.

    Tie-break: argmin_nu is the lowest holonomy index among the cells whose
    r^2 lies within 4 P eps max_t sum_p |a_p| of the row minimum, where a
    is the row's GEMM coefficient vector. The bound covers the rounding of
    the product, so holonomies tied in exact arithmetic (symmetry orbits
    such as nu -> -nu) resolve to the lowest index whatever order the
    product sums in. min_residual is the square root of the row minimum,
    clamped at 0.
    """
    ell = np.asarray(ell, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    p_re = np.asarray(p_re, dtype=np.float64)
    p_im = np.asarray(p_im, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    ma, nfac = ell.shape
    jj, ll = np.triu_indices(nfac)
    gram = v @ v.T
    coef = np.where(jj == ll, 1.0, 2.0) * gram[jj, ll]  # (P,)
    table = np.ascontiguousarray(
        (p_re[:, jj] * p_re[:, ll] + p_im[:, jj] * p_im[:, ll]).T)
    npair, mnu, k = table.shape[0], table.shape[1], t.shape[0]
    tol_factor = 4 * npair * np.finfo(np.float64).eps
    minres = np.empty(ma)
    argnu = np.empty(ma, dtype=np.int64)
    chunk = max(1, CHUNK_ENTRIES // max(1, k * mnu))
    for lo in range(0, ma, chunk):
        hi = min(lo + chunk, ma)
        w = t[:, None, None] ** ell[None, lo:hi, :]    # (K, c, N)
        a = coef * w[:, :, jj] * w[:, :, ll]          # (K, c, P)
        r2 = (a.reshape(-1, npair) @ table).reshape(k, hi - lo, mnu)
        worst = r2.max(axis=0)                        # (c, Mnu)
        best = worst.min(axis=1)
        bound = best + tol_factor * np.abs(a).sum(axis=2).max(axis=0)
        argnu[lo:hi] = (worst <= bound[:, None]).argmax(axis=1)
        minres[lo:hi] = np.sqrt(np.maximum(best, 0.0))
    return minres, argnu
