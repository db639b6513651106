"""Landau-Ginzburg mirror: superpotential, dual coordinates, critical points.

W(Theta) = sum_i exp(lambda_i - <Theta, v_i>) on the complex torus; its
critical points at the T^{2pi} = e^{-1} specialization match the balanced
fibers (Theta = A - i nu), and the obstruction class matches W itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .discs import FiberPoint
from .floer import HolonomyVector, NovikovTerm, NovikovVector, delta2_point
from .lattice import (Fan, KernelLattice, Polytope, PolytopeError,
                      euler_characteristic)
from .solve import dedup_mod_2pi, sort_key, wrap_angle

EXP_CLAMP = 700.0
# the Newton search holds all its starts at once; dimension 4 at the
# default grids (5^4 x 8^4 starts) is the largest it takes
MAX_NEWTON_STARTS = 40 ** 4


class OverflowGuardError(OverflowError):
    pass


@dataclass(frozen=True)
class Superpotential:
    """Terms exp(-y_i - <Theta, v_i>) with y_i = -lambda_i, one per facet."""

    dim: int
    exponents: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]

    def _weights(self, theta: np.ndarray) -> np.ndarray:
        v = np.array(self.exponents, dtype=float)
        z = np.asarray(theta, dtype=complex)
        arg = np.array([float(l) for l in self.offsets]) - v @ z
        if np.any(np.abs(arg.real) > EXP_CLAMP):
            raise OverflowGuardError(
                "superpotential exponent out of range (|Re| > 700)")
        return np.exp(arg)

    def value(self, theta) -> complex:
        return complex(self._weights(theta).sum())

    def gradient(self, theta) -> np.ndarray:
        v = np.array(self.exponents, dtype=float)
        return -(self._weights(theta)[:, None] * v).sum(axis=0)

    def hessian(self, theta) -> np.ndarray:
        v = np.array(self.exponents, dtype=float)
        w = self._weights(theta)
        return np.einsum("i,ia,ib->ab", w, v, v)


@dataclass(frozen=True)
class MirrorPoint:
    theta: tuple[complex, ...]

    @property
    def fiber(self) -> tuple[float, ...]:
        return tuple(t.real for t in self.theta)

    @property
    def holonomy(self) -> tuple[float, ...]:
        return tuple((-t.imag) % (2 * math.pi) for t in self.theta)


@dataclass(frozen=True)
class MirrorCoordinates:
    y: tuple[complex, ...]


@dataclass(frozen=True)
class CriticalPoint:
    point: MirrorPoint
    residual: float
    hessian_cond: float
    degenerate: bool


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


def critical_points(w: Superpotential, p: Polytope, fan: Fan | None = None,
                    grid_im: int = 8, grid_re: int = 5,
                    residual_tol: float = 1e-12, dedup_tol: float = 1e-8
                    ) -> list[CriticalPoint]:
    """All critical points of W with Im(Theta) in [0, 2 pi)^n.

    Multistart Newton: real parts on a grid over the polytope bounding box
    inflated by 1, imaginary parts on a 2 pi / grid_im lattice; converged
    points deduplicated mod 2 pi i, keeping the smallest gradient. The
    count is compared against the Euler characteristic with a warning on
    mismatch. More than MAX_NEWTON_STARTS starts raise PolytopeError.
    """
    n = w.dim
    n_starts = grid_re ** n * grid_im ** n
    if n_starts > MAX_NEWTON_STARTS:
        raise PolytopeError(
            f"critical point search is limited to {MAX_NEWTON_STARTS} "
            f"Newton starts, dimension {n} needs {n_starts}")
    verts = p.vertices()
    lo = [min(float(v[i]) for v in verts) - 1.0 for i in range(n)]
    hi = [max(float(v[i]) for v in verts) + 1.0 for i in range(n)]
    re_axes = [np.linspace(lo[i], hi[i], grid_re) for i in range(n)]
    im_axis = np.arange(grid_im) * (2 * math.pi / grid_im)
    re_grid = np.stack([g.ravel() for g in np.meshgrid(*re_axes)], axis=-1)
    im_grid = np.stack([g.ravel() for g in np.meshgrid(
        *([im_axis] * n))], axis=-1)
    starts = (re_grid[:, None, :] - 1j * im_grid[None, :, :]).reshape(-1, n)

    v = np.array(w.exponents, dtype=float)
    lam = np.array([float(l) for l in w.offsets])

    def batch_grad_hess(z):
        arg = lam[None, :] - z @ v.T
        # keep exp finite for runaway iterates without letting a huge
        # positive exponent collapse to zero gradient
        arg = np.clip(arg.real, -745.0, 50.0) + 1j * arg.imag
        ew = np.exp(arg)
        g = -np.einsum("si,ia->sa", ew, v)
        h = np.einsum("si,ia,ib->sab", ew, v, v)
        return g, h

    z = starts.copy()
    alive = np.ones(len(z), dtype=bool)
    for _ in range(80):
        g, h = batch_grad_hess(z[alive])
        gn = np.linalg.norm(g, axis=1)
        try:
            step = np.linalg.solve(h, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.linalg.solve(
                h + 1e-12 * np.eye(n)[None, :, :], g[..., None])[..., 0]
        step_norm = np.linalg.norm(step, axis=1)
        step[step_norm > 2.0] *= (2.0 / step_norm[step_norm > 2.0])[:, None]
        z[alive] -= step
        done = gn < 1e-15
        idx = np.flatnonzero(alive)
        alive[idx[done]] = False
        if not alive.any():
            break

    g, _ = batch_grad_hess(z)
    resid = np.linalg.norm(g, axis=1)
    order = np.argsort(resid)
    order = order[resid[order] <= residual_tol]
    re, im = z.real[order], wrap_angle(-z.imag[order])
    found: list[CriticalPoint] = []
    for i in dedup_mod_2pi(re, im, dedup_tol):
        zi = re[i] - 1j * im[i]
        hess = w.hessian(zi)
        sv = np.linalg.svd(hess, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        found.append(CriticalPoint(
            MirrorPoint(tuple(zi)), float(resid[order[i]]), cond,
            bool(sv[-1] <= 1e-8 * sv[0])))
    found.sort(key=lambda cp: sort_key(
        [t.real for t in cp.point.theta] + [t.imag for t in cp.point.theta],
        dedup_tol))
    if fan is not None:
        chi = euler_characteristic(fan)
        if len(found) != chi:
            warnings.warn(
                f"found {len(found)} critical points but Euler "
                f"characteristic is {chi}; roots may be degenerate or "
                f"outside the search box", stacklevel=2)
    return found


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
    vec = d2.specialize()
    if vec.size == 0:  # all area levels cancelled exactly
        vec = np.zeros(p.dim, dtype=complex)
    sign = (-1) ** p.dim
    w = build_superpotential(p)
    theta = np.array(a.as_floats(), dtype=float) - 1j * np.array(
        nu.nu if nu is not None else [0.0] * p.dim)
    return float(np.linalg.norm(sign * vec + w.gradient(theta)))
