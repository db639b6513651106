"""Brute-force grid oracle for balanced fibers.

Scans a dense grid of interior fiber positions and holonomy vectors for
small balanced residuals, then polishes the best grid cells with local
least squares. Serves as an independent completeness check on the exact
and Newton pipelines; the per-cell scan is the package's hot loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import grid_min_residual
from .lattice import Polytope, PolytopeError
from .solve import dedup_mod_2pi, least_squares, sort_key, wrap_angle

# probe values separating the area filtration levels: vanishing of the
# residual at several generic t in (0,1) forces per-level vanishing
PROBE_T = (0.31830988618379067, 0.5641895835477563, 0.7853981633974483)
# candidates closer than this in every coordinate are one candidate
DEDUP_TOL = 1e-4
# fiber grid points times holonomy grid points the scan takes; dimension 2
# and 3 at the default grids (200^2 x 60^2, 32^3 x 16^3) stay below it
MAX_GRID_CELLS = 2 ** 28


@dataclass(frozen=True)
class OracleCandidate:
    point: tuple[float, ...]
    nu: tuple[float, ...]
    residual: float


def _residual_fun(p: Polytope):
    """Row-wise balanced residuals at every probe t, one point (A, nu) per
    row."""
    v = np.array(p.normals, dtype=float)
    lam = np.array([float(l) for l in p.offsets])
    n = p.dim

    def fun(x):
        a, nu = x[:, :n], x[:, n:]
        ell = a @ v.T - lam
        phase = np.exp(1j * (nu @ v.T))
        out = []
        for t in PROBE_T:
            s = (t ** ell * phase) @ v
            out.extend((s.real, s.imag))
        return np.hstack(out)

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
    nu_axis = np.arange(n_nu) * (2 * math.pi / n_nu)
    nu_grid = np.stack(
        [g.ravel() for g in np.meshgrid(*([nu_axis] * n))], axis=-1)
    return a_grid, nu_grid


def grid_scan(p: Polytope, n_a: int | None = None, n_nu: int | None = None):
    """Minimum balanced residual over the holonomy grid, per interior
    fiber grid point. Returns (points, nus, min_residuals). Grid sizes
    below 1 raise ValueError; more than MAX_GRID_CELLS fiber x holonomy
    grid points raise PolytopeError before anything is allocated."""
    v = np.array(p.normals, dtype=float)
    lam = np.array([float(l) for l in p.offsets])
    a_grid, nu_grid = _grids(p, n_a, n_nu)
    ell = a_grid @ v.T - lam
    interior = (ell > 1e-9).all(axis=1)
    a_grid, ell = a_grid[interior], ell[interior]
    phase = np.exp(1j * (nu_grid @ v.T))
    minres, argnu = grid_min_residual(
        ell, phase.real, phase.imag, v, np.array(PROBE_T))
    return a_grid, nu_grid[argnu], minres


def balanced_oracle(p: Polytope, n_a: int | None = None,
                    n_nu: int | None = None, polish_top: int = 40,
                    accept_tol: float = 1e-8) -> list[OracleCandidate]:
    """Balanced candidates from a grid scan plus local polishing."""
    a_grid, nu_best, minres = grid_scan(p, n_a, n_nu)
    order = np.argsort(minres)
    seeds = []
    for s in order[:10 * polish_top]:
        a = a_grid[s]
        if any(np.max(np.abs(a - np.array(prev))) < 0.5 for prev, _ in seeds):
            continue
        seeds.append((tuple(a), tuple(nu_best[s])))
        if len(seeds) >= polish_top:
            break
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
    found = [row for row in np.flatnonzero(resid <= accept_tol)
             if all(float(l) > 1e-9 for l in p.ell(x[row, :p.dim]))]
    a_found, nu_found = x[found, :p.dim], wrap_angle(x[found, p.dim:])
    out = [OracleCandidate(tuple(float(c) for c in a_found[i]),
                           tuple(float(c) for c in nu_found[i]),
                           float(resid[found[i]]))
           for i in dedup_mod_2pi(a_found, nu_found, DEDUP_TOL)]
    out.sort(key=lambda c: sort_key(c.point + c.nu, DEDUP_TOL))
    return out
