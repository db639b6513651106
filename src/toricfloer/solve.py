"""Numerics shared by the searches: batched least squares, the angle wrap,
deduplication modulo 2 pi and the sort key of their results.

`least_squares` is Levenberg-Marquardt with a forward-difference Jacobian
and Marquardt's scaling by the running maximum of the squared Jacobian
column norms, as in MINPACK's lmdif (More, "The Levenberg-Marquardt
algorithm: implementation and theory", 1978). It runs every row of a start
matrix at once and rejects non-finite trial points itself.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2 * math.pi

MAX_ITER = 200
# damping schedule: start at LAMBDA0, divide by 10 after an accepted step
# and multiply by 10 after a rejected one, within [LAMBDA_MIN, LAMBDA_MAX]
LAMBDA0 = 1e-3
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e12
# a row stops once its step is below XTOL relative to its position
XTOL = 1e-15
# forward-difference step: sqrt(machine eps) as in MINPACK, times
# max(|x_j|, 1) so that coordinates near 0 still get a usable step
DIFF_STEP = math.sqrt(np.finfo(float).eps)


def _cost(r: np.ndarray) -> np.ndarray:
    c = np.einsum("ij,ij->i", r, r)
    c[~np.isfinite(c)] = np.inf
    return c


def _jacobian_t(fun, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Forward-difference J^T per row: (m, k, q)."""
    m, k = x.shape
    h = DIFF_STEP * np.maximum(np.abs(x), 1.0)
    xs = x[:, None, :] + h[:, :, None] * np.eye(k)
    rs = fun(xs.reshape(m * k, k)).reshape(m, k, -1)
    return (rs - r[:, None, :]) / h[:, :, None]


@np.errstate(all="ignore")
def least_squares(fun, x0):
    """Minimise ||fun(x)|| from every row of x0 at once.

    fun maps an (m, k) array of points to the (m, q) array of their
    residuals, row by row. Returns (x, norm): the final points and their
    residual norms. A row whose start is not finite keeps it and ends with
    norm inf.
    """
    x = np.array(x0, dtype=float)
    r = fun(x)
    cost = _cost(r)
    lam = np.full(len(x), LAMBDA0)
    scale = np.zeros(x.shape)
    active = np.flatnonzero(np.isfinite(cost) & (cost > 0))
    for _ in range(MAX_ITER):
        if not active.size:
            break
        xa, ra = x[active], r[active]
        jt = _jacobian_t(fun, xa, ra)
        hess = jt @ jt.transpose(0, 2, 1)
        finite = np.isfinite(hess).all(axis=(1, 2))
        active, xa, ra, jt, hess = (active[finite], xa[finite], ra[finite],
                                    jt[finite], hess[finite])
        grad = (jt @ ra[..., None])[..., 0]
        s = np.maximum(scale[active], np.diagonal(hess, axis1=1, axis2=2))
        s[s == 0] = 1.0
        scale[active] = s
        la = lam[active]
        damped = hess + (la[:, None] * s)[:, :, None] * np.eye(x.shape[1])
        step = -np.linalg.solve(damped, grad[..., None])[..., 0]
        xn = xa + step
        rn = fun(xn)
        cn = _cost(rn)
        better = cn < cost[active]
        acc = active[better]
        x[acc], r[acc], cost[acc] = xn[better], rn[better], cn[better]
        lam[active] = np.where(better, np.maximum(la / 10, LAMBDA_MIN),
                               la * 10)
        tiny = (np.linalg.norm(step, axis=1)
                <= XTOL * (np.linalg.norm(xa, axis=1) + XTOL))
        done = tiny | (cost[active] == 0) | (lam[active] > LAMBDA_MAX)
        active = active[~done]
    return x, np.sqrt(cost)


def wrap_angle(x) -> np.ndarray:
    """Angles in [0, 2 pi), with values within 1e-9 of the 0 / 2 pi seam,
    on either side, snapped to 0."""
    out = np.mod(np.asarray(x, dtype=float), TWO_PI)
    out[(out > TWO_PI - 1e-9) | (out < 1e-9)] = 0.0
    return out


def dedup_mod_2pi(lin, ang, tol: float) -> np.ndarray:
    """Indices of the rows kept by deduplication, best-ranked first.

    Rows are ranked by position. Two rows are duplicates when every
    coordinate of lin (m, a) differs by at most tol and every angle of
    ang (m, b) by at most tol on the circle; each cluster keeps its
    best-ranked row. Rows are grouped by their coordinates rounded to the
    tol grid, and each group leader, in rank order, is compared with the
    array of leaders kept so far, which also merges clusters split by a
    grid line or by the 0 / 2 pi seam. Memory stays linear in the number
    of leaders.
    """
    lin = np.asarray(lin, dtype=float)
    ang = wrap_angle(ang)
    if not len(lin):
        return np.empty(0, dtype=np.int64)
    keys = np.round(np.hstack([lin, ang]) / tol)
    _, first = np.unique(keys, axis=0, return_index=True)
    lead = np.sort(first)
    lin, ang = lin[lead], ang[lead]
    kept: list[int] = []
    # inf - inf is nan, which is never within tol
    with np.errstate(invalid="ignore"):
        for i in range(len(lead)):
            # the kept leaders are moved to the front: rows :k
            k = len(kept)
            near = (np.abs(lin[:k] - lin[i]) <= tol).all(axis=1)
            d = np.abs(ang[:k][near] - ang[i]) % TWO_PI
            if not (np.minimum(d, TWO_PI - d) <= tol).all(axis=1).any():
                lin[k], ang[k] = lin[i], ang[i]
                kept.append(i)
    return lead[kept]


def sort_key(x, tol: float) -> tuple[float, ...]:
    """Coordinates rounded to the tol grid, so that a result's place in a
    sorted list does not hang on the last bit of a coordinate."""
    return tuple(np.round(np.asarray(x, dtype=float) / tol).tolist())
