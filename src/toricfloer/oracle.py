"""Grid oracle for balanced fibers.

Tiles the fiber positions with boxes and excludes every box that a
holonomy-free interval bound proves to hold no balanced fiber at any
holonomy (`kernels.box_survivors`). The exclusion runs coarse to fine: it
starts from the vertices' bounding box and splits only the boxes that
survive, down to the n_a-per-axis tiles (`_surviving_centres`), so at the
criterion-9 grids one corpus round tests 1 703 boxes, not 104 888. The
tiles that survive enclose every balanced fiber; the residual kernel
scans their centres against a holonomy grid, and the best cells are
polished by local least squares. Serves as an independent completeness
check on the exact and Newton pipelines.

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

from .kernels import EPS, TINY, box_survivors, grid_min_residual
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
    mirror._newton_step does for a singular Hessian. A row whose J^T J or
    J^T r is not finite stops where it is. So does a row whose J^T J
    underflows so far that the diagonal term falls below the normal range
    (TINY), as when every weight underflows: its normal equations carry no
    digits and may stay singular with the term added. Its norm is inf, so
    it is never a candidate. Returns (x, norm): the final points and the
    norms of their last residuals, inf where not finite or where J^T J
    underflowed.
    """
    x = np.array(x0, dtype=float)
    eye = np.eye(x.shape[1])
    active = np.arange(len(x))
    r, jac = fun(x)
    norm = np.sqrt(np.einsum("ij,ij->i", r, r))
    for _ in range(MAX_ITER):
        jt = jac.transpose(0, 2, 1)
        hess, grad = jt @ jac, (jt @ r[..., None])[..., 0]
        reg = 1e-12 * np.abs(hess).max(axis=(1, 2))
        norm[active[reg < TINY]] = np.inf
        go = ((reg >= TINY) & np.isfinite(reg)
              & np.isfinite(grad).all(axis=1))
        active, hess, grad, reg = active[go], hess[go], grad[go], reg[go]
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
    """The A-tiling and the holonomy grid: (lo, h, r, n_a, nus).

    n_a boxes per axis tile the bounding box of p's vertices, from lo to
    hi (n,): box k of an axis has centre lo + (2 k + 1) h, with
    h = (hi - lo) / (2 n_a), and half-width r (n,). With
    M = max(|lo|, |hi|), lo and hi round from the exact vertices by
    eps/2 M each; after a subtraction, a division, a product and a sum,
    h lies within 1.5 eps M of the exact tiling's half-width and each
    centre within 5 eps M of its centre. So r = h + 8 eps M makes the
    boxes [c - r, c + r] cover the exact bounding box. n_a is resolved
    from its default, and nus is _holonomy_grid(n, n_nu).
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
    r = h + 8 * EPS * np.maximum(np.abs(lo), np.abs(hi))
    return lo, h, r, n_a, _holonomy_grid(n, n_nu)


def _surviving_centres(lo, h, r, n_a, v, lam, t):
    """Centres (m, n) of the n_a^n boxes of the tiling (lo, h, r, n_a) of
    _grids that kernels.box_survivors keeps, found by bisection; in
    meshgrid order, C-contiguous.

    Each axis is padded to 2^L cells, L = ceil(log2 n_a). A box of level
    l = 0 .. L spans s = 2^(L - l) cells: box j of an axis spans cells
    j s .. (j + 1) s - 1, with centre lo + (2 j + 1) s h and half-width
    s r. Level 0 is one box over the whole padded range; each level
    splits the boxes that survive the one before into 2^n children and
    drops the children whose first cell lies past the n_a-th. The boxes
    of level L are the tiling's own, with the same centres and r, and
    each goes through the same test as in a flat pass over all n_a^n
    boxes once every coarser box that contains it has survived. A coarse
    box covers the exact cells it spans, so its exclusion is a sound
    exclusion of them all; and as the reverse triangle bound only gets
    stronger on a sub-box, a box the flat pass keeps has, up to rounding,
    no excluded ancestor.

    Rounding of a coarse box, s >= 2, as _grids derives r: with
    M = max(|lo|, |hi|), h lies within eps M / n_a + eps/2 h of the exact
    half-width. A first cell j s < n_a gives q = (2 j + 1) s < 4 n_a and
    q h < 2 (hi - lo) <= 4 M, so q h lies within 6 eps M of q times the
    exact half-width; the product rounds by 2 eps M, the sum, of size at
    most 3 M, by 1.5 eps M, and lo by eps/2 M: the centre lies within
    10 eps M of the exact one. As s < 2 n_a, s h lies within 3 eps M of s
    times the exact half-width. The computed r is at least h + 7.4 eps M
    and s r is exact, so s r exceeds the exact half-width of the box by
    at least 7.4 s eps M - 3 eps M > 10 eps M: the box covers the exact
    cells it spans.
    """
    n = len(lo)
    depth = (n_a - 1).bit_length()
    split = np.array(list(itertools.product((0, 1), repeat=n)))
    boxes = np.zeros((1, n), dtype=np.int64)
    for level in range(depth + 1):
        s = 2 ** (depth - level)
        if level:
            boxes = (2 * boxes[:, None] + split).reshape(-1, n)
            boxes = boxes[(boxes * s < n_a).all(axis=1)]
        centres = lo + h * ((2 * boxes + 1) * s)
        keep = box_survivors(centres, s * r, v, lam, t)
        boxes, centres = boxes[keep], centres[keep]
    # meshgrid order: the second axis varies slowest, then the first, then
    # the third and the rest; np.lexsort sorts by its last key first
    axes = list(range(n))
    axes[:2] = axes[1::-1]
    return centres[np.lexsort(boxes[:, axes[::-1]].T)]


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
    away from 0 for every holonomy; _surviving_centres applies it coarse
    to fine and returns the surviving centres in meshgrid order. Every
    balanced fiber, at any holonomy, lies in one of the returned boxes; a
    centre may lie outside the polytope when its box straddles a facet.

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
    lo, h, r, n_a, nu_grid = _grids(p, n_a, n_nu)
    t = np.array(PROBE_T)
    centres = _surviving_centres(lo, h, r, n_a, v, lam, t)
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
    # (0, pi) are reachable from any seed cell; the zero shift comes first
    # and is the seed itself, since every grid nu lies in [0, 2 pi)
    offs = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    shifts = list(itertools.product(offs, repeat=p.dim))
    starts = [a + tuple((x + o) % (2 * math.pi) for x, o in zip(nu, shift))
              for a, nu in seeds for shift in shifts]
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
