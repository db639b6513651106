"""Brute-force grid oracle for balanced fibers.

Scans a dense grid of interior fiber positions and holonomy vectors for
small balanced residuals, then polishes the best grid cells with local
least squares. Serves as an independent completeness check on the exact
and Newton pipelines; the per-cell scan is the package's hot loop.

`least_squares` is Gauss-Newton on the analytic Jacobian of the balanced
residual (Nocedal-Wright, "Numerical Optimization", 2006, 10.3), run on
every row of a start matrix at once. The polished candidates are merged
and sorted by the plain-Python rules of `solve`.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .kernels import grid_min_residual, pruned_min_residual
from .lattice import Polytope, PolytopeError
from .solve import dedup_mod_2pi, sort_key, wrap_angle

# probe values separating the area filtration levels: vanishing of the
# residual at several generic t in (0,1) forces per-level vanishing
PROBE_T = (0.31830988618379067, 0.5641895835477563, 0.7853981633974483)
# indices into PROBE_T in the order a pruned grid_scan bounds the rows by
# single probes, 0.564, 0.785, 0.318: at the criterion-9 grids it lets
# 9 152 of the 53 089 corpus rows reach the kernel (9 944 to 11 834 for
# the other five orders) and had the lowest median scan time of the six
BOUND_ORDER = (1, 2, 0)
# candidates closer than this in every coordinate are one candidate
DEDUP_TOL = 1e-4
# balanced_oracle polishes at most this many seeds
POLISH_TOP = 40
# a polished point whose residual is at most this is a candidate
ACCEPT_TOL = 1e-8
# grid points and candidates lie more than this inside every facet
INTERIOR_TOL = 1e-9
# fiber grid points times holonomy grid points the scan takes; dimension 2
# and 3 at the default grids (200^2 x 60^2, 32^3 x 16^3) stay below it
MAX_GRID_CELLS = 2 ** 28


# least_squares stops a row after MAX_ITER steps, or once its step is below
# XTOL relative to its position; a step longer than MAX_STEP is cut to it,
# as uncapped steps from far starts reach points where J^T J is singular
# to working precision
MAX_ITER = 200
XTOL = 1e-15
MAX_STEP = 2.0


@np.errstate(all="ignore")
def least_squares(fun, x0):
    """Minimise ||fun(x)|| from every row of x0 at once by Gauss-Newton.

    fun maps an (m, k) array of points to their residuals (m, q) and
    Jacobians (m, q, k), row by row. A step solves the normal equations
    with 1e-12 of their largest entry added to the diagonal, as
    mirror._newton_step does for a singular Hessian; an all-zero J^T J
    raises numpy.linalg.LinAlgError. A row whose J^T J or J^T r is not
    finite stops where it is. Returns (x, norm): the final points and the
    norms of their last residuals, inf where not finite.
    """
    x = np.array(x0, dtype=float)
    eye = np.eye(x.shape[1])
    active = np.arange(len(x))
    r, jac = fun(x)
    norm = np.sqrt(np.einsum("ij,ij->i", r, r))
    for _ in range(MAX_ITER):
        jt = jac.transpose(0, 2, 1)
        hess, grad = jt @ jac, (jt @ r[..., None])[..., 0]
        finite = (np.isfinite(hess).all(axis=(1, 2))
                  & np.isfinite(grad).all(axis=1))
        active, hess, grad = active[finite], hess[finite], grad[finite]
        reg = 1e-12 * np.abs(hess).max(axis=(1, 2))
        step = -np.linalg.solve(hess + reg[:, None, None] * eye,
                                grad[..., None])[..., 0]
        xa = x[active]
        both = np.stack((step, xa))
        norm_step, norm_x = np.sqrt((both * both).sum(axis=2))
        moving = norm_step > XTOL * (norm_x + XTOL)
        active = active[moving]
        if not active.size:
            break
        cap = np.minimum(1.0, MAX_STEP / norm_step[moving])
        x[active] = xa[moving] + cap[:, None] * step[moving]
        r, jac = fun(x[active])
        norm[active] = np.sqrt(np.einsum("ij,ij->i", r, r))
    norm[~np.isfinite(norm)] = np.inf
    return x, norm


class OracleCandidate(NamedTuple):
    point: tuple[float, ...]
    nu: tuple[float, ...]
    residual: float


def _facets(p: Polytope):
    """The normals and offsets of p as float arrays (N, n) and (N,)."""
    return (np.array(p.normals, dtype=float),
            np.array([float(l) for l in p.offsets]))


def _residual_fun(p: Polytope):
    """Row-wise balanced residuals at every probe t, one point (A, nu) per
    row, and their Jacobians.

    With c_j = t^ell_j(A) e^{i <nu, v_j>} and H = sum_j c_j v_j v_j^T, the
    balanced sum s = sum_j c_j v_j has ds/dA = ln t H and ds/dnu = i H.
    """
    v, lam = _facets(p)
    n = p.dim
    probes = np.array(PROBE_T)[:, None, None]
    vv = (v[:, :, None] * v[:, None, :]).reshape(len(v), n * n)
    dlog = np.log(probes)[..., None]

    def fun(x):
        m = len(x)
        a, nu = x[:, :n], x[:, n:]
        ell = a @ v.T - lam
        phase = np.exp(1j * (nu @ v.T))
        c = probes ** ell * phase                       # (K, m, N)
        s = c @ v                                       # (K, m, n)
        h = (c @ vv).reshape(len(PROBE_T), m, n, n)
        ds = np.concatenate((dlog * h, 1j * h), axis=3)  # (K, m, n, 2n)
        # rows Re, Im of the first probe, then of the next
        r = np.concatenate((s.real, s.imag), axis=2).transpose(1, 0, 2)
        jac = np.concatenate((ds.real, ds.imag), axis=2).transpose(
            1, 0, 2, 3)
        return r.reshape(m, -1), jac.reshape(m, -1, 2 * n)

    return fun


def _grids(p: Polytope, n_a: int | None, n_nu: int | None):
    n = p.dim
    if n_a is None:
        n_a = 200 if n <= 2 else 32
    if n_nu is None:
        n_nu = 60 if n <= 2 else 16
    if n_a < 1 or n_nu < 1:
        raise ValueError(f"grid sizes must be positive, got n_a={n_a}, "
                         f"n_nu={n_nu}")
    cells = n_a ** n * n_nu ** n
    if cells > MAX_GRID_CELLS:
        raise PolytopeError(
            f"grid oracle is limited to {MAX_GRID_CELLS} grid cells, "
            f"dimension {n} at n_a={n_a}, n_nu={n_nu} needs {cells}")
    verts = p.vertices()
    lo = [min(float(v[i]) for v in verts) for i in range(n)]
    hi = [max(float(v[i]) for v in verts) for i in range(n)]
    axes = [np.linspace(lo[i], hi[i], n_a + 2)[1:-1] for i in range(n)]
    a_grid = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
    return a_grid, _holonomy_grid(n, n_nu)


def _holonomy_grid(n: int, n_nu: int):
    """The 2 pi / n_nu holonomy lattice in meshgrid order, keeping of each
    conjugate pair {nu, -nu mod 2 pi} only the cell of lower index."""
    nu_axis = np.arange(n_nu) * (2 * math.pi / n_nu)
    nu_grid = np.stack(
        [g.ravel() for g in np.meshgrid(*([nu_axis] * n))], axis=-1)
    # each array axis of the meshgrid carries one coordinate's index k, so
    # the conjugate of a cell sits at index (-k) mod n_nu on every axis
    index = np.arange(n_nu ** n).reshape((n_nu,) * n)
    every_axis = tuple(range(n))
    conj = np.roll(np.flip(index, every_axis), 1, every_axis)
    return nu_grid[conj.ravel() >= index.ravel()]


def grid_scan(p: Polytope, n_a: int | None = None, n_nu: int | None = None,
              keep: int | None = None):
    """Minimum balanced residual over the holonomy grid, per interior
    fiber grid point. Returns (points, nus, min_residuals). Grid sizes
    below 1 raise ValueError; more than MAX_GRID_CELLS fiber x holonomy
    grid points raise PolytopeError before anything is allocated.

    Only one holonomy of each conjugate pair {nu, -nu mod 2 pi} is
    scanned, the one of lower index in the full n_nu^n lattice; a cell
    with every nu_i in {0, pi} is its own conjugate. That is (m^n + 2^n)/2
    cells for even m = n_nu, 1 154 of 2 304 for n = 2, m = 48. The
    result is the full scan's: the normals and offsets are real, so the
    sum at -nu is the complex conjugate of the sum at nu and the two cells
    of a pair tie in exact arithmetic; the kernel returns the lowest index
    among tied cells, which in the full scan is never the higher cell of
    a pair, so every cell the full scan can return is kept.

    keep=None evaluates every row. With a number, only the rows that can
    lie among the keep smallest min_residuals are evaluated
    (kernels.pruned_min_residual, probes in BOUND_ORDER): every row starts
    from a bound that ignores the holonomy, at O(N n) per row and probe,
    and single-probe passes sharpen it. A single probe's r^2 minimum over
    the holonomies is at most the row's minimum of the maximum over all
    probes, and less a margin of 16 P eps sum_p |a_p| (four times the
    kernel's tie tolerance, for the rounding of both computations) it is
    a lower bound on the row's computed r^2 minimum; the first such pass
    bounds only the 2 keep rows of lowest holonomy-free bound.
    A row whose bound lies above the keep-th smallest evaluated value is
    dropped and reads min_residual +inf and nu NaN. Every evaluated row,
    and so every row among the keep smallest of the full scan in order of
    min_residual with ties by index, equals the full scan's.
    """
    v, lam = _facets(p)
    a_grid, nu_grid = _grids(p, n_a, n_nu)
    ell = a_grid @ v.T - lam
    interior = (ell > INTERIOR_TOL).all(axis=1)
    a_grid, ell = a_grid[interior], ell[interior]
    phase = np.exp(1j * (nu_grid @ v.T))
    t = np.array(PROBE_T)
    if keep is None:
        minres, argnu = grid_min_residual(ell, phase.real, phase.imag, v, t)
        return a_grid, nu_grid[argnu], minres
    minres, argnu = pruned_min_residual(ell, phase.real, phase.imag, v, t,
                                        keep, BOUND_ORDER)
    nus = np.full((len(argnu), p.dim), np.nan)
    hit = argnu >= 0
    nus[hit] = nu_grid[argnu[hit]]
    return a_grid, nus, minres


def _seeds(a_grid, nu_best, minres, polish_top: int):
    """Greedy in order of residual among the 10 * polish_top best cells,
    equal residuals in index order: a cell seeds unless it lies within 0.5
    in every coordinate of a seed taken before it; at most polish_top
    seeds, as (point, nu) tuples."""
    cells = np.argsort(minres, kind="stable")[:10 * polish_top]
    points = a_grid[cells]
    free = np.ones(len(cells), dtype=bool)
    seeds = []
    while len(seeds) < polish_top and free.any():
        i = free.argmax()
        a = points[i]
        seeds.append((tuple(a), tuple(nu_best[cells[i]])))
        free &= np.abs(points - a).max(axis=1) >= 0.5
    return seeds


def balanced_oracle(p: Polytope, n_a: int | None = None,
                    n_nu: int | None = None) -> list[OracleCandidate]:
    """Balanced candidates from a grid scan plus local polishing.

    The seeds come from the 10 * POLISH_TOP cells of lowest residual, so
    the scan runs with keep = 10 * POLISH_TOP: the rows it proves to lie
    outside that many read +inf and are never seeds, and the seeds are
    those of the full scan. A polished point is a candidate when its
    residual is at most ACCEPT_TOL and each of its facet distances,
    computed in floats, exceeds INTERIOR_TOL.
    """
    seeds = _seeds(*grid_scan(p, n_a, n_nu, keep=10 * POLISH_TOP),
                   POLISH_TOP)
    # per-coordinate holonomy restart offsets so mixed holonomies such as
    # (0, pi) are reachable from any seed cell
    offs = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    shifts = [shift for shift in itertools.product(offs, repeat=p.dim)
              if any(shift)]
    starts = []
    for a, nu in seeds:
        starts.append(a + nu)
        starts += [a + tuple((x + o) % (2 * math.pi)
                             for x, o in zip(nu, shift))
                   for shift in shifts]
    x, resid = least_squares(_residual_fun(p),
                             np.array(starts).reshape(-1, 2 * p.dim))
    v, lam = _facets(p)
    interior = (x[:, :p.dim] @ v.T - lam > INTERIOR_TOL).all(axis=1)
    found = np.flatnonzero((resid <= ACCEPT_TOL) & interior)
    a_found, nu_found = x[found, :p.dim], x[found, p.dim:]
    out = [OracleCandidate(tuple(float(c) for c in a_found[i]),
                           tuple(wrap_angle(float(c)) for c in nu_found[i]),
                           float(resid[found[i]]))
           for i in dedup_mod_2pi(a_found.tolist(), nu_found.tolist(),
                                  DEDUP_TOL)]
    out.sort(key=lambda c: sort_key(c.point + c.nu, DEDUP_TOL))
    return out
