"""Grid oracle for balanced fibers.

Tiles the fiber positions with boxes and excludes every box that a
holonomy-free interval bound proves to hold no balanced fiber at any
holonomy (`kernels.box_survivors`). The boxes that survive enclose every
balanced fiber; the residual kernel scans their centres against a
holonomy grid, and the best cells are polished by local least squares.
Serves as an independent completeness check on the exact and Newton
pipelines.

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

from .kernels import EPS, box_survivors, grid_min_residual
from .lattice import Polytope, PolytopeError
from .solve import dedup_mod_2pi, sort_key, wrap_angle

# probe values separating the area filtration levels: vanishing of the
# residual at several generic t in (0,1) forces per-level vanishing
PROBE_T = (0.31830988618379067, 0.5641895835477563, 0.7853981633974483)
# candidates closer than this in every coordinate are one candidate
DEDUP_TOL = 1e-4
# balanced_oracle polishes at most this many seeds
POLISH_TOP = 40
# a polished point whose residual is at most this is a candidate
ACCEPT_TOL = 1e-8
# candidates lie more than this inside every facet
INTERIOR_TOL = 1e-9
# A-boxes times holonomy grid points the scan takes; dimension 2
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
    """The A-boxes and the holonomy grid: (centres, r, nus).

    n_a boxes per axis tile the bounding box of p's vertices; centres
    (n_a^n, n) are in meshgrid order and r (n,) are the half-widths. On
    an axis from lo to hi, the centres are lo + (2 k + 1) h with
    h = (hi - lo) / (2 n_a). With M = max(|lo|, |hi|), lo and hi round
    from the exact vertices by eps/2 M each; after a subtraction, a
    division, a product and a sum, h lies within 1.5 eps M of the exact
    tiling's half-width and each centre within 5 eps M of its centre. So
    r = h + 8 eps M makes the boxes [c - r, c + r] cover the exact
    bounding box. nus is _holonomy_grid(n, n_nu).
    """
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
    verts = np.array([[float(x) for x in v] for v in p.vertices()])
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    h = (hi - lo) / (2 * n_a)
    axes = [lo[i] + h[i] * np.arange(1, 2 * n_a, 2) for i in range(n)]
    centres = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
    r = h + 8 * EPS * np.maximum(np.abs(lo), np.abs(hi))
    return centres, r, _holonomy_grid(n, n_nu)


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


def grid_scan(p: Polytope, n_a: int | None = None, n_nu: int | None = None):
    """Minimum balanced residual over the holonomy grid at the centre of
    every A-box that survives exclusion. Returns (centres, nus,
    min_residuals). Grid sizes below 1 raise ValueError; more than
    MAX_GRID_CELLS box x holonomy grid points raise PolytopeError before
    anything is allocated.

    n_a boxes per axis cover the vertices' bounding box (_grids), and
    kernels.box_survivors drops each box that misses the open polytope or
    where, at some probe, one coordinate of the balanced sum is bounded
    away from 0 for every holonomy. Every balanced fiber, at any holonomy,
    lies in one of the returned boxes; a centre may lie outside the
    polytope when its box straddles a facet.

    Only one holonomy of each conjugate pair {nu, -nu mod 2 pi} is
    scanned, the one of lower index in the full n_nu^n lattice; a cell
    with every nu_i in {0, pi} is its own conjugate. That is (m^n + 2^n)/2
    cells for even m = n_nu, 1 154 of 2 304 for n = 2, m = 48. The
    result is the full scan's: the normals and offsets are real, so the
    sum at -nu is the complex conjugate of the sum at nu and the two cells
    of a pair tie in exact arithmetic; the kernel returns the lowest index
    among tied cells, which in the full scan is never the higher cell of
    a pair, so every cell the full scan can return is kept.
    """
    v, lam = _facets(p)
    centres, r, nu_grid = _grids(p, n_a, n_nu)
    t = np.array(PROBE_T)
    centres = centres[box_survivors(centres, r, v, lam, t)]
    phase = np.exp(1j * (nu_grid @ v.T))
    minres, argnu = grid_min_residual(centres @ v.T - lam, phase.real,
                                      phase.imag, v, t)
    return centres, nu_grid[argnu], minres


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
    """Balanced candidates from box exclusion, a grid scan of the
    surviving boxes and local polishing.

    The seeds are taken from the surviving box centres of grid_scan, in
    order of residual; with no surviving box there is no balanced fiber
    and the result is [], without a polish. A polished point is a
    candidate when its residual is at most ACCEPT_TOL and each of its
    facet distances, computed in floats, exceeds INTERIOR_TOL.
    """
    seeds = _seeds(*grid_scan(p, n_a, n_nu), POLISH_TOP)
    if not seeds:
        return []
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
    x, resid = least_squares(_residual_fun(p), np.array(starts))
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
