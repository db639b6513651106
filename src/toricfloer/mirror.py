"""Landau-Ginzburg mirror: superpotential, dual coordinates, critical points.

W(Theta) = sum_i exp(lambda_i - <Theta, v_i>) on the complex torus; its
critical points at the T^{2pi} = e^{-1} specialization match the balanced
fibers (Theta = A - i nu), and the obstruction class matches W itself.
The balanced fibers with holonomy are found that way: as the critical
points that pass the per-level test of `holonomy_balanced`.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .discs import FiberPoint, OverflowGuardError
from .floer import (AreaPartition, BalancedSolution, HolonomyVector,
                    NovikovTerm, NovikovVector, _level_partition,
                    _warn_non_fano, delta2_point, equal_area_certificate)
from .lattice import (Fan, KernelLattice, Polytope, PolytopeError,
                      kushnirenko_count)
from .solve import dedup_mod_2pi, sort_key, wrap_angle

# the Newton search holds the n x n Hessians of all its starts at once, so
# S starts in dimension n hold S n^2 entries; at the default grid (P^1)^6
# runs 65 x 4^6 starts and (P^1)^7 is refused
MAX_NEWTON_ENTRIES = 4 ** 2 * 40 ** 4


class Superpotential(NamedTuple):
    """Terms exp(-y_i - <Theta, v_i>) with y_i = -lambda_i, one per facet."""

    dim: int
    exponents: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]

    def scaled(self, theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """W at each row of a stacked theta (k, n), divided by e^c.

        Returns c, the largest Re exponent of each row, and the weights,
        gradient and Hessian of W e^-c: no weight exceeds 1 in modulus,
        and W e^-c has W's critical points and Newton steps.
        """
        v = np.array(self.exponents, dtype=float)
        arg = (np.array([float(l) for l in self.offsets])
               - np.asarray(theta, dtype=complex) @ v.T)
        c = arg.real.max(axis=1)
        ew = np.exp(arg - c[:, None])
        return c, ew, -ew @ v, np.einsum("si,ia,ib->sab", ew, v, v)

    def _unscaled(self, theta) -> list[np.ndarray]:
        """W's weights, gradient and Hessian at one theta (n,)."""
        c, *terms = self.scaled(np.asarray(theta, dtype=complex)[None])
        try:
            scale = math.exp(c[0])
        except OverflowError:
            raise OverflowGuardError(f"superpotential exponent out of "
                                     f"range (Re {c[0]:.6g})") from None
        return [scale * t[0] for t in terms]

    def value(self, theta) -> complex:
        return complex(self._unscaled(theta)[0].sum())

    def gradient(self, theta) -> np.ndarray:
        return self._unscaled(theta)[1]

    def hessian(self, theta) -> np.ndarray:
        return self._unscaled(theta)[2]


class MirrorPoint(NamedTuple):
    theta: tuple[complex, ...]

    @property
    def fiber(self) -> tuple[float, ...]:
        return tuple(t.real for t in self.theta)

    @property
    def holonomy(self) -> tuple[float, ...]:
        return tuple((-t.imag) % (2 * math.pi) for t in self.theta)


class MirrorCoordinates(NamedTuple):
    y: tuple[complex, ...]


class CriticalPoint(NamedTuple):
    point: MirrorPoint
    residual: float
    hessian_cond: float
    degenerate: bool


class LevelTest(NamedTuple):
    """The per-level test of one critical point Theta = A - i nu.

    partition is the level partition at A, None when A is not interior to
    the polytope; failed_level is the first block whose unit-weight sum
    does not vanish, and residual its norm (the norm over all blocks when
    none fails); solution indexes the balanced fiber the point gave.
    """

    fiber: tuple[float, ...]
    nu: tuple[float, ...]
    partition: AreaPartition | None
    failed_level: int | None
    residual: float | None
    message: str
    solution: int | None = None


def build_superpotential(p: Polytope) -> Superpotential:
    return Superpotential(p.dim, p.normals, p.offsets)


def mirror_coordinates(p: Polytope, theta: MirrorPoint) -> MirrorCoordinates:
    z = np.array(theta.theta, dtype=complex)
    v = np.array(p.normals, dtype=float)
    lam = np.array([float(l) for l in p.offsets])
    return MirrorCoordinates(tuple(v @ z - lam))


def mirror_coordinates_exact(p: Polytope, theta_re, theta_im):
    """Y_i = <Theta, v_i> - lambda_i with rational real/imaginary parts."""
    re = [Fraction(x) for x in theta_re]
    im = [Fraction(x) for x in theta_im]
    out = []
    for v, lam in p.facets:
        out.append((sum(r * c for r, c in zip(re, v)) - Fraction(lam),
                    sum(i * c for i, c in zip(im, v))))
    return out


def constraint_residuals_exact(p: Polytope, k: KernelLattice, theta_re,
                               theta_im):
    """Exact residuals sum_i Q_ia Y_i - t_a; zero for every Theta."""
    y = mirror_coordinates_exact(p, theta_re, theta_im)
    out = []
    for row in k.basis:
        t_a = -sum(Fraction(q) * Fraction(lam)
                   for q, lam in zip(row, p.offsets))
        s_re = sum(Fraction(q) * yr for q, (yr, _) in zip(row, y))
        s_im = sum(Fraction(q) * yi for q, (_, yi) in zip(row, y))
        out.append((s_re - t_a, s_im))
    return out


def gradient_W(w: Superpotential, theta: MirrorPoint) -> np.ndarray:
    return w.gradient(np.array(theta.theta, dtype=complex))


def critical_points(w: Superpotential, p: Polytope, grid_im: int = 4,
                    grid_re: int = 2) -> list[CriticalPoint]:
    """All critical points of W with Im(Theta) in [0, 2 pi)^n.

    One multistart Newton run: real parts at the vertex centroid and at
    grid_re - 1 evenly spaced points on its segment to each vertex, moved
    one unit outward along every coordinate (those vertices themselves at
    grid_re = 2), imaginary parts on a 2 pi / grid_im lattice; converged
    points deduplicated mod 2 pi i, keeping the smallest gradient. The
    Kushnirenko count n! Vol(conv{v_j}) of the facet normals bounds the
    isolated critical points counted with multiplicity, so a search that
    finds that many distinct nondegenerate points is complete; one that
    finds another number warns. A search whose starts hold more than
    MAX_NEWTON_ENTRIES Hessian entries raises PolytopeError before it
    runs.
    """
    found = _newton_search(w, p, grid_re, grid_im)
    count = kushnirenko_count(p.dim, p.normals)
    distinct = sum(not cp.degenerate for cp in found)
    if distinct != count:
        why = ("search incomplete or roots degenerate" if distinct < count
               else "more than the bound allows, so duplicates or "
               "degenerate roots were counted")
        warnings.warn(f"found {distinct} of {count} (Kushnirenko count): "
                      f"{why}", stacklevel=2)
    return found


# Newton's tolerances are relative to the size 1 + |Theta|_inf of a point:
# a row stops once its step is below STOP_STEP of it, a point is accepted
# when its last step is below ACCEPT_STEP of it, and it is degenerate when
# the least singular value of its scaled Hessian is below DEGENERATE_SV
# times the dimension; accepted points within DEDUP_TOL of each other,
# Im taken mod 2 pi, are one
STOP_STEP = 1e-15
ACCEPT_STEP = 1e-10
DEGENERATE_SV = 1e-8
DEDUP_TOL = 1e-8


def _newton_step(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Newton steps h^-1 g of stacked Hessians h and gradients g."""
    try:
        return np.linalg.solve(h, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # far from every critical point one weight can dominate, and a
        # Hessian is then rank one to working precision: regularise each
        # singular one relative to its largest entry, and no other
        reg = 1e-12 * np.abs(h).max(axis=(1, 2)) * (np.linalg.det(h) == 0)
        return np.linalg.solve(h + reg[:, None, None] * np.eye(h.shape[-1]),
                               g[..., None])[..., 0]


def _newton_search(w: Superpotential, p: Polytope, grid_re: int,
                   grid_im: int) -> list[CriticalPoint]:
    """One multistart Newton run from the starts of critical_points."""
    n = w.dim
    verts = p.vertices()
    n_starts = (1 + len(verts) * (grid_re - 1)) * grid_im ** n
    if n_starts * n * n > MAX_NEWTON_ENTRIES:
        raise PolytopeError(
            f"critical point search is limited to {MAX_NEWTON_ENTRIES} "
            f"Hessian entries (Newton starts x dimension^2), the "
            f"{grid_re}x{grid_im} grid in dimension {n} needs {n_starts} "
            f"starts, {n_starts * n * n} entries")
    centroid = [sum(x[i] for x in verts) / len(verts) for i in range(n)]
    c, vs = np.array(centroid, dtype=float), np.array(verts, dtype=float)
    # the centroid, then grid_re - 1 points from each vertex towards it,
    # the vertex moved one unit outward along every coordinate: on a
    # non-Fano polytope some critical points lie just outside a vertex
    vs += np.sign(vs - c)
    frac = np.arange(grid_re - 1) / (grid_re - 1)
    re_starts = np.vstack([c, (vs[:, None] + frac[:, None]
                               * (c - vs)[:, None]).reshape(-1, n)])
    im_axis = np.arange(grid_im) * (2 * math.pi / grid_im)
    im_grid = np.stack([g.ravel() for g in np.meshgrid(
        *([im_axis] * n))], axis=-1)

    def size(z):
        return 1.0 + np.abs(z).max(axis=1)

    z = (re_starts[:, None] - 1j * im_grid[None]).reshape(-1, n)
    last = np.full(len(z), np.inf)
    alive = np.arange(len(z))
    for _ in range(80):
        _, _, g, h = w.scaled(z[alive])
        step = _newton_step(h, g)
        step_norm = np.linalg.norm(step, axis=1)
        last[alive] = step_norm
        step[step_norm > 2.0] *= (2.0 / step_norm[step_norm > 2.0])[:, None]
        z[alive] -= step
        alive = alive[step_norm > STOP_STEP * size(z[alive])]
        if not alive.size:
            break

    # rows ranked by |grad W| e^-c, their gradient relative to their
    # largest weight; the Hessians and SVDs below reuse the same rows
    top, ew, g, h = w.scaled(z)
    resid = np.linalg.norm(g, axis=1)
    order = np.argsort(resid, kind="stable")
    order = order[last[order] <= ACCEPT_STEP * size(z[order])]
    re, im = z.real[order], wrap_angle(-z.imag[order])
    keep = dedup_mod_2pi(re, im, DEDUP_TOL)
    rows = order[keep]
    h = h[rows]
    sv = np.linalg.svd(h, compute_uv=False)
    # D = diag(sum_j |w_j| v_ja^2) bounds the Hessian's diagonal, and
    # D^-1/2 H D^-1/2 has entries of size 1 even where the weights of
    # different coordinates differ by orders of magnitude; where every
    # weight of a coordinate underflows next to the largest, D^-1/2 is 0
    # on it, so the scaled Hessian is singular and the point degenerate
    v = np.array(w.exponents, dtype=float)
    dd = np.abs(ew[rows]) @ (v * v)
    d = np.divide(1.0, np.sqrt(dd), out=np.zeros_like(dd), where=dd > 0)
    sv_scaled = np.linalg.svd(h * d[:, :, None] * d[:, None, :],
                              compute_uv=False)
    found = [CriticalPoint(
        MirrorPoint(tuple(re[i] - 1j * im[i])),
        float(resid[r] * np.exp(top[r])),
        float(s[0] / s[-1]) if s[-1] > 0 else math.inf,
        bool(s_min <= DEGENERATE_SV * n))
        for i, r, s, s_min in zip(keep, rows, sv, sv_scaled[:, -1])]
    found.sort(key=lambda cp: sort_key(
        [t.real for t in cp.point.theta] + [t.imag for t in cp.point.theta],
        DEDUP_TOL))
    return found


# facets whose areas at A differ by at most LEVEL_TOL share a level; a
# block balances when its unit-weight sum is at most BALANCE_TOL times the
# total length of its normals; balanced fibers within HOLONOMY_DEDUP_TOL
# of each other, nu taken mod 2 pi, are one
LEVEL_TOL = 1e-7
BALANCE_TOL = 1e-9
HOLONOMY_DEDUP_TOL = 1e-6


def holonomy_balanced(p: Polytope, cps, fan: Fan | None = None
                      ) -> tuple[list[BalancedSolution], list[LevelTest]]:
    """The balanced fibers with holonomy among the critical points cps of W.

    At T^{2pi} = e^{-1}, delta_2<pt> at (A, nu) is -grad W at
    Theta = A - i nu, so every balanced fiber is a critical point of W
    with A interior. A critical point is one exactly when, at its A, every
    level block's unit-weight sum sum_j e^{i <nu, v_j>} v_j vanishes. The
    exact equal-area solve of each passing partition certifies it, and
    its unique solution replaces A. Returns the balanced fibers, merged
    mod 2 pi and sorted, and one LevelTest per critical point, in order.
    """
    _warn_non_fano(p, fan)
    lengths = [math.sqrt(sum(c * c for c in v)) for v in p.normals]
    found, tests = [], []
    for cp in cps:
        a, nu = cp.point.fiber, HolonomyVector(cp.point.holonomy)
        if any(l <= 0 for l in p.ell(a)):
            tests.append(LevelTest(a, nu.nu, None, None, None,
                                   "A lies outside the polytope"))
            continue
        part = _level_partition(p, FiberPoint(a, exact=False), LEVEL_TOL)
        sums = []
        for block in part.blocks:
            vec = [sum(nu.factor(p.normals[j]) * p.normals[j][i]
                       for j in block) for i in range(p.dim)]
            sums.append(math.sqrt(sum(abs(x) ** 2 for x in vec)))
        failed = next((k for k, block in enumerate(part.blocks) if sums[k]
                       > BALANCE_TOL * sum(lengths[j] for j in block)), None)
        if failed is not None:
            tests.append(LevelTest(
                a, nu.nu, part, failed, sums[failed],
                f"level {failed} (facets {list(part.blocks[failed])}) "
                f"does not balance"))
            continue
        sol, violations = equal_area_certificate(p, part.blocks)
        if violations:
            vio = "; ".join(f"ell_{i} - ell_{j} = {v}"
                            for i, j, v in violations)
            tests.append(LevelTest(a, nu.nu, part, None, None,
                                   f"equal areas infeasible ({vio})"))
            continue
        resid = math.hypot(*sums)
        point = FiberPoint(tuple(float(x) for x in sol.particular)
                           if sol.unique else a, exact=False)
        found.append((len(tests), BalancedSolution(
            point, nu, _level_partition(p, point, LEVEL_TOL), resid)))
        tests.append(LevelTest(a, nu.nu, part, None, resid, ""))
    kept = dedup_mod_2pi([s.point.coords for _, s in found],
                         [s.nu.nu for _, s in found], HOLONOMY_DEDUP_TOL)
    for i in set(range(len(found))) - set(kept.tolist()):
        t = found[i][0]
        tests[t] = tests[t]._replace(
            message="merged with another balanced critical point")
    solutions = sorted((found[i] for i in kept), key=lambda ts: sort_key(
        ts[1].point.coords + ts[1].nu.nu, HOLONOMY_DEDUP_TOL))
    for index, (t, _) in enumerate(solutions):
        tests[t] = tests[t]._replace(solution=index)
    return [s for _, s in solutions], tests


def balanced_fibers_with_holonomy(p: Polytope, fan: Fan | None = None
                                  ) -> list[BalancedSolution]:
    """Balanced fibers with flat line bundle twists: the critical points
    of W that pass the per-level test of holonomy_balanced."""
    return holonomy_balanced(
        p, critical_points(build_superpotential(p), p), fan)[0]


def obstruction_class(p: Polytope, a: FiberPoint,
                      nu: HolonomyVector | None = None) -> NovikovVector:
    """o(L) = sum_j h^{v_j} T^{Area(beta_j)} q, a scalar Novikov element."""
    a.require_interior(p)
    exact = a.exact and (nu is None or nu.trivial)
    terms = []
    for (v, _), ell in zip(p.facets, a.ell(p)):
        h = nu.factor(v) if nu is not None else (
            Fraction(1) if exact else 1.0 + 0j)
        level = Fraction(ell) if exact else float(ell)
        terms.append(NovikovTerm(h, level, 1, (Fraction(1) if exact
                                               else 1.0 + 0j,)))
    return NovikovVector(tuple(terms), exact)


def check_o_equals_W(p: Polytope, a: FiberPoint,
                     nu: HolonomyVector | None = None) -> float:
    """|o(L) at T^{2pi}=e^{-1} (q dropped) - W(A - i nu)|."""
    o = obstruction_class(p, a, nu)
    lhs = complex(sum(complex(t.coefficient) * math.exp(-float(t.level))
                      for t in o.terms))
    w = build_superpotential(p)
    theta = np.array(a.as_floats(), dtype=float) - 1j * np.array(
        nu.nu if nu is not None else [0.0] * p.dim)
    return abs(lhs - w.value(theta))


def check_delta2_equals_gradW(p: Polytope, a: FiberPoint,
                              nu: HolonomyVector | None = None) -> float:
    """||delta2<pt> at T^{2pi}=e^{-1} (sign, q dropped) + grad W||."""
    d2 = delta2_point(p, a, nu)
    vec = np.array(d2.specialize())
    if vec.size == 0:  # all area levels cancelled exactly
        vec = np.zeros(p.dim, dtype=complex)
    sign = (-1) ** p.dim
    w = build_superpotential(p)
    theta = np.array(a.as_floats(), dtype=float) - 1j * np.array(
        nu.nu if nu is not None else [0.0] * p.dim)
    return float(np.linalg.norm(sign * vec + w.gradient(theta)))
