"""The grid oracle's hot kernel: one real GEMM per chunk of fiber rows.

``oracle.grid_scan`` passes one holonomy of each conjugate pair
{nu, -nu mod 2 pi}, the one of lower lattice index; the residual is even
in nu, and the lowest-tied-index rule below then gives the full lattice's
answer. ``pruned_min_residual`` runs the kernel only on the fiber rows
that a holonomy-free lower bound and one-probe lower bounds cannot prove
to lie outside the smallest ``keep``.
"""

from __future__ import annotations

import numpy as np

# float64 entries in each chunk's r^2 block (chunk rows * K * M_nu), about
# 0.5 MB, so a chunk's temporaries stay in a core's L2 cache; on a 2 MB-L2
# Xeon the corpus scans ran about 20% slower with 8x larger chunks
CHUNK_ENTRIES = 62_500
EPS = np.finfo(np.float64).eps


def _quadratic_form(p_re, p_im, v):
    """The fixed operands of the GEMM: the index pairs j <= l, their
    coefficients c_jl (G_jj on the diagonal, 2 G_jl off it, G = v v^T)
    and the (P x M_nu) table of Re(conj(p_j) p_l)."""
    v = np.asarray(v, dtype=np.float64)
    p_re = np.asarray(p_re, dtype=np.float64)
    p_im = np.asarray(p_im, dtype=np.float64)
    jj, ll = np.triu_indices(v.shape[0])
    gram = v @ v.T
    coef = np.where(jj == ll, 1.0, 2.0) * gram[jj, ll]  # (P,)
    table = np.ascontiguousarray(
        (p_re[:, jj] * p_re[:, ll] + p_im[:, jj] * p_im[:, ll]).T)
    return jj, ll, coef, table


def _chunk_rows(k, mnu):
    """Fiber rows per chunk, for k probes against mnu table columns."""
    return max(1, CHUNK_ENTRIES // max(1, k * mnu))


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
    jj, ll, coef, table = _quadratic_form(p_re, p_im, v)
    ma = ell.shape[0]
    npair, mnu, k = table.shape[0], table.shape[1], t.shape[0]
    tol_factor = 4 * npair * EPS
    minres = np.empty(ma)
    argnu = np.empty(ma, dtype=np.int64)
    chunk = _chunk_rows(k, mnu)
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


def _holonomy_free_bound(ell, v, t):
    """Per fiber row, a lower bound on the r^2 minimum that
    grid_min_residual computes for the row, without the holonomy table.

    With w_j = t^{ell_j}, T_a = sum_j w_j |v_ja| and M_a = max_j w_j |v_ja|,
    the reverse triangle inequality against the largest term gives
    |sum_j w_j p_j v_ja| >= 2 M_a - T_a for every vector p of unit phases,
    so sum_a max(0, 2 M_a - T_a)^2 is at most r^2(t, nu) for every nu, and
    so at most the row minimum of max_t r^2, in exact arithmetic.

    Rounding, with U = sum_j w_j ||v_j||, so that sum_a T_a^2 <= U^2 (the
    triangle inequality on the vectors (w_j |v_ja|)_a): the phases are
    unit to within 2 eps, which moves the inequality by 2 eps T_a; each
    computed w_j |v_ja| lies within 6 eps of its exact value (a power
    within 4 ulp and a product), so M_a within 6 eps T_a and the N-term
    sum T_a within (N + 6) eps T_a; 2 M_a - T_a, its difference rounded,
    is then within (N + 21) eps T_a, clamping at 0 moves it by no more,
    its rounded square is within (2 N + 43) eps T_a^2, and the n-term sum
    of squares within (2 N + n + 43) eps U^2. The kernel's computed r^2 at
    t lies within (P + 10) eps S of its exact value (see
    _probe_lower_bound), and S = sum_{j,l} |<v_j, v_l>| w_j w_l <= U^2.
    The margin 8 (P + 16) eps U^2 is at least 2 (P + 3 N + 53) eps U^2,
    since n < N <= P for the normals of a polytope: it covers both
    computations and the rounding of U, of the margin and of the
    subtraction, so the result, the largest over the probes, never
    exceeds the row's computed r^2 minimum. O(N n) per row and probe;
    runs in chunks of CHUNK_ENTRIES products w_j |v_ja|.
    """
    nfac, n = v.shape
    vabs = np.abs(v)
    norms = np.sqrt((v * v).sum(axis=1))
    margin = 8 * (nfac * (nfac + 1) // 2 + 16) * EPS
    out = np.empty(ell.shape[0])
    chunk = max(1, CHUNK_ENTRIES // (t.shape[0] * nfac * n))
    for lo in range(0, ell.shape[0], chunk):
        hi = min(lo + chunk, ell.shape[0])
        # rows on the last axis, so every reduction runs over whole rows
        w = t[:, None, None] ** ell[lo:hi].T              # (K, N, c)
        y = w[:, :, None] * vabs[:, :, None]              # (K, N, n, c)
        b = np.maximum(2 * y.max(axis=1) - y.sum(axis=1), 0.0)
        u = (w * norms[:, None]).sum(axis=1)              # (K, c)
        out[lo:hi] = ((b * b).sum(axis=1) - margin * (u * u)).max(axis=0)
    return out


def _probe_lower_bound(ell, form, tk):
    """Per fiber row, a lower bound from the single probe tk on the r^2
    minimum that grid_min_residual computes for the row.

    For every nu, r^2(tk, nu) <= max_t r^2(t, nu), so the row minimum of
    r^2(tk, .) is at most the kernel's min_nu max_t r^2, in exact
    arithmetic. Both are computed in floats from the same table, whose
    entries are at most 1 + 4 eps in size. Against exact powers, one
    computed r^2 at tk lies within (P + 10) eps S of its exact value,
    S = sum_p |a_p| over the row's coefficient vector a at tk: each a_p
    within 10 eps |a_p| (two powers within 4 ulp, two products), and the
    P-term product with a table column within P eps S more. The margin
    16 P eps S, four times the kernel's tie tolerance 4 P eps S, is at
    least 2 (P + 11) eps S for every P >= 2: it covers both computations
    and the subtraction, so the result never exceeds the row's computed
    r^2 minimum. Runs in chunks of rows, as the kernel does.
    """
    jj, ll, coef, table = form
    npair, mnu = table.shape
    margin = 16 * npair * EPS
    out = np.empty(ell.shape[0])
    chunk = _chunk_rows(1, mnu)
    for lo in range(0, ell.shape[0], chunk):
        hi = min(lo + chunk, ell.shape[0])
        w = tk ** ell[lo:hi]                          # (c, N)
        a = coef * w[:, jj] * w[:, ll]                # (c, P)
        out[lo:hi] = ((a @ table).min(axis=1)
                      - margin * np.abs(a).sum(axis=1))
    return out


def pruned_min_residual(ell, p_re, p_im, v, t, keep, order):
    """grid_min_residual on the rows that can lie among the keep smallest
    min_residual values; the rows proven to lie outside read min_residual
    +inf and argmin_nu -1.

    Branch and bound (Land and Doig, 1960). Every row starts from
    _holonomy_free_bound. Then come passes over the probes t[order[0]],
    t[order[1]], ...: each pass bounds rows with _probe_lower_bound,
    keeping the running maximum of a row's bounds, drops the rows above
    the current limit, runs the kernel on the keep alive rows of lowest
    bound among those it bounded (lowest index among equal bounds), and
    sets tau to the keep-th smallest min_residual evaluated so far. The
    first pass bounds only the 2 keep rows of lowest holonomy-free bound;
    later passes bound every alive row. The limit is the square of the
    next float above tau, times 1 + 4 eps for the rounding of that square:
    a row whose bound exceeds it has a computed min_residual above tau, so
    at least keep evaluated rows come before it in any order of
    min_residual, ties by index included. Rows that tie tau are never
    dropped. The kernel then runs on the rows that survive every pass.

    The kernel runs on whole chunks of the full run (rows [i c, i c + c)
    for its chunk size c), so every evaluated row meets the same matrix
    product as in grid_min_residual(ell, ...) and has its bits; BLAS
    rounds a row differently at other positions in a product.
    """
    ell = np.asarray(ell, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    ma = ell.shape[0]
    minres = np.full(ma, np.inf)
    argnu = np.full(ma, -1, dtype=np.int64)
    if keep < 1:
        return minres, argnu
    form = _quadratic_form(p_re, p_im, v)
    lower = _holonomy_free_bound(ell, np.asarray(v, dtype=np.float64), t)
    alive = np.ones(ma, dtype=bool)
    chunk = _chunk_rows(t.shape[0], form[3].shape[1])

    def lowest(rows, count):
        # the count rows of lowest bound, ties by index, in index order
        return np.sort(rows[np.argsort(lower[rows], kind="stable")[:count]])

    def evaluate(rows):
        # the rows' chunks by a mask: a first np.unique call adds 1.4 MB
        # to the process RSS
        blocks = np.zeros(-(-ma // chunk), dtype=bool)
        blocks[rows // chunk] = True
        rows = (np.flatnonzero(blocks)[:, None] * chunk
                + np.arange(chunk)).ravel()
        rows = rows[rows < ma]
        minres[rows], argnu[rows] = grid_min_residual(ell[rows], p_re, p_im,
                                                      v, t)
        alive[rows] = False

    limit = np.inf
    rows = lowest(np.arange(ma), 2 * keep)
    for k in order:
        lower[rows] = np.maximum(lower[rows],
                                 _probe_lower_bound(ell[rows], form, t[k]))
        alive &= lower <= limit
        rows = rows[alive[rows]]
        if len(rows) == 0:
            break
        evaluate(lowest(rows, keep))
        done = minres[np.isfinite(minres)]
        if len(done) >= keep:
            tau = np.partition(done, keep - 1)[keep - 1]
            above = np.nextafter(tau, np.inf)
            limit = above * above * (1 + 4 * EPS)
            alive &= lower <= limit
        rows = np.flatnonzero(alive)
    if alive.any():
        evaluate(np.flatnonzero(alive))
    return minres, argnu
