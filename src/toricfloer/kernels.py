"""The grid oracle's two numpy passes: box exclusion and the residual GEMM.

``box_survivors`` excludes the A-boxes that hold no balanced fiber at any
holonomy, by interval bounds on the facet distances over each box (Moore,
"Interval Analysis", 1966). ``oracle`` calls it once per level of a
bisection, from the vertices' bounding box down to the n_a-per-axis
tiles, on the children of the boxes that survived the level before: at
the criterion-9 grids it tests 19, 105, 617, 53, 421, 427 and 61 boxes on
p1, p2, p3, p1xp1, f1, f2 and f3, 1 703 where a flat pass tests all
104 888 tiles. ``grid_min_residual`` then evaluates the balanced residual
at the surviving box centres, one real GEMM per chunk of rows.
``oracle.grid_scan`` passes it one holonomy of each conjugate pair
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
EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny


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
    t = np.asarray(t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    p_re = np.asarray(p_re, dtype=np.float64)
    p_im = np.asarray(p_im, dtype=np.float64)
    # the GEMM's fixed operands: the index pairs j <= l, their coefficients
    # c_jl and the (P x M_nu) table of Re(conj(p_j) p_l)
    jj, ll = np.triu_indices(v.shape[0])
    gram = v @ v.T
    coef = np.where(jj == ll, 1.0, 2.0) * gram[jj, ll]  # (P,)
    table = np.ascontiguousarray(
        (p_re[:, jj] * p_re[:, ll] + p_im[:, jj] * p_im[:, ll]).T)
    ma = ell.shape[0]
    npair, mnu, k = table.shape[0], table.shape[1], t.shape[0]
    tol_factor = 4 * npair * EPS
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


def box_survivors(centres, r, v, lam, t):
    """Mask of the A-boxes [c - r, c + r] that no bound excludes: every
    balanced fiber, at any holonomy, lies in a box whose entry is True.

    centres: (M, n) box centres c; r: (n,) half-widths; v: (N, n) facet
    normals; lam: (N,) offsets; t: (K,) probe values in (0, 1).

    On a box the facet distance l_j(A) = <A, v_j> - lam_j lies in
    [l_j^-, l_j^+] = l_j(c) -+ (R_j + d_j), R_j = sum_a |v_ja| r_a, with
    d_j the rounding term below. The box is excluded when
    - some l_j^+ <= 0: it misses the open polytope; or
    - for some probe t and coordinate a,
      max_j (t^{l_j^+} + t^{l_j^-}) |v_ja| > (1 + m) sum_k t^{l_k^-} |v_ka|.
      At a point of the box each weight w_j = t^{l_j(A)} lies in
      [t^{l_j^+}, t^{l_j^-}], so for unit phases p_j = e^{i<nu, v_j>} the
      reverse triangle inequality against term j gives
      |sum_k w_k p_k v_ka| >= w_j |v_ja| - sum_{k != j} w_k |v_ka|
      >= (t^{l_j^+} + t^{l_j^-}) |v_ja| - sum_k t^{l_k^-} |v_ka| > 0 for
      every nu, while a balanced fiber's sum vanishes at every t.

    Rounding, with eps = 2^-52:
    - l at the centre. The computed <c, v_j> - lam_j lies within
      (n + 1) eps S_j of its exact value, S_j = sum_a |c_a v_ja| + |lam_j|:
      an absolute error that grows with |c| |v| + |lam|. The computed R_j
      and S_j lie within (n + 1) eps of theirs, relatively.
    - The exp of a rounded product. A weight is exp(l ln t): ln t is within
      4 ulp and the product rounds once, so the exponent is l' ln t with
      |l' - l| <= 5 eps |l|, and exp adds 4 ulp. Each computed weight is
      thus within a factor 1 + 4 eps of the exact weight at a facet
      distance within 5 eps |l| <= 5 eps (1 + 2 eps)(S_j + R_j + d_j) of
      the computed end l.
    - The ends. Rounding d_j, l +- (R_j + d_j) and the exponent moves an
      end by at most (n + 8) eps (S_j + R_j), so d_j = (n + 10) eps
      (R_j + S_j), computed, keeps the effective ends around the box's
      exact range of l_j.
    - The N-term sums. Against the exact weights at the effective ends, the
      computed left side is at most 6 eps too large (4 ulp, a sum and a
      product) and the right side at most (N/2 + 5) eps too small (4 ulp,
      a product each and the N-term sum); (1 + m) and its product round
      by 2 eps more, so m = (2 N + 16) eps, at least (N + 14) eps, keeps
      the exclusion sound.
    - Underflow. A weight below the normal range is within 4 ulp of the
      subnormals, 2^-1072, and each rounding below it adds 2^-1075, at most
      (N + 2)(8 max|v| + 2) 2^-1074 on both sides together; the right
      side's extra term TINY = 2^-1022 covers that for any
      N (8 max|v| + 2) < 2^51. So a box whose weights all underflow is
      never excluded: it stays undecided. A weight that overflows makes
      both sides inf, or nan where it meets v_ja = 0, and never excludes.

    O(K N n) per box; runs in chunks of CHUNK_ENTRIES products
    t^l |v_ja|.
    """
    centres = np.asarray(centres, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    nfac, n = v.shape
    vabs = np.abs(v)
    spread = (vabs @ np.asarray(r, dtype=np.float64))[:, None]  # (N, 1)
    lnt = np.log(np.asarray(t, dtype=np.float64))[:, None, None]
    margin = 1 + (2 * nfac + 16) * EPS
    out = np.empty(len(centres), dtype=bool)
    chunk = max(1, CHUNK_ENTRIES // (len(lnt) * nfac * n))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for lo in range(0, len(centres), chunk):
            # boxes on the last axis, so every reduction runs over whole rows
            c = centres[lo:lo + chunk].T
            ell = v @ c - lam[:, None]                      # (N, c)
            half = spread + (n + 10) * EPS * (
                spread + vabs @ np.abs(c) + np.abs(lam)[:, None])
            upper = ell + half
            w_min = np.exp(lnt * upper)                     # (K, N, c)
            w_max = np.exp(lnt * (ell - half))
            left = ((w_min + w_max)[:, :, None] * vabs[:, :, None]).max(
                axis=1)                                     # (K, n, c)
            right = margin * (vabs.T @ w_max) + TINY
            out[lo:lo + chunk] = ((upper > 0).all(axis=0)
                                  & ~(left > right).any(axis=(0, 1)))
    return out
