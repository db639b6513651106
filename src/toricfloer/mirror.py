"""Landau-Ginzburg mirror: superpotential, dual coordinates, critical points.

W(Theta) = sum_i exp(lambda_i - <Theta, v_i>) on the complex torus; its
critical points at the T^{2pi} = e^{-1} specialization match the balanced
fibers (Theta = A - i nu), and the obstruction class matches W itself.
The balanced fibers with holonomy are found that way: as the critical
points that pass the per-level test of `holonomy_balanced`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from fractions import Fraction
from typing import NamedTuple

from .discs import FiberPoint, OverflowGuardError
from .floer import (AreaPartition, BalancedSolution, HolonomyVector,
                    NovikovVector, _disc_terms, _level_partition,
                    _warn_non_fano, delta2_point, equal_area_certificate)
from .lattice import KernelLattice, Polytope, PolytopeError
from .solve import TWO_PI, dedup_mod_2pi, sort_key, wrap_angle

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
        import numpy as np

        c, ew, grad = self.scaled_gradient(theta)
        v = np.array(self.exponents, dtype=float)
        return c, ew, grad, np.einsum("si,ia,ib->sab", ew, v, v)

    def scaled_gradient(self, theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """`scaled` without the Hessian: c, and the weights and gradient
        of W e^-c at each row of theta (k, n)."""
        import numpy as np

        v = np.array(self.exponents, dtype=float)
        arg = (np.array([float(l) for l in self.offsets])
               - np.asarray(theta, dtype=complex) @ v.T)
        c = arg.real.max(axis=1)
        ew = np.exp(arg - c[:, None])
        return c, ew, -ew @ v

    def scaled_at(self, theta) -> tuple:
        """`scaled` at one theta (n,) in plain Python: c, and the weights
        and gradient (lists) and Hessian (list of rows) of W e^-c."""
        args = [float(lam) - sum([t * x for t, x in zip(theta, v) if x])
                for v, lam in zip(self.exponents, self.offsets)]
        c = max([a.real for a in args])
        ew = [cmath.exp(a - c) for a in args]
        n = self.dim
        grad = [0j] * n
        hess = [[0j] * n for _ in range(n)]
        # term by term: the normals are sparse
        for e, v in zip(ew, self.exponents):
            for a, x in enumerate(v):
                if x:
                    ex = e * x
                    grad[a] -= ex
                    row = hess[a]
                    for b in range(a, n):
                        if v[b]:
                            row[b] += ex * v[b]
        for a in range(n):
            for b in range(a):
                hess[a][b] = hess[b][a]
        return c, ew, grad, hess

    def _unscaled(self, theta) -> tuple:
        """W's weights, gradient and Hessian at one theta (n,)."""
        c, ew, grad, hess = self.scaled_at(theta)
        try:
            scale = math.exp(c)
        except OverflowError:
            raise OverflowGuardError(f"superpotential exponent out of "
                                     f"range (Re {c:.6g})") from None
        return ([scale * e for e in ew], [scale * g for g in grad],
                [[scale * x for x in row] for row in hess])

    def value(self, theta) -> complex:
        return sum(self._unscaled(theta)[0])

    def gradient(self, theta) -> np.ndarray:
        import numpy as np

        return np.array(self._unscaled(theta)[1])

    def hessian(self, theta) -> np.ndarray:
        import numpy as np

        return np.array(self._unscaled(theta)[2])


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
    return MirrorCoordinates(tuple(
        sum(x * t for x, t in zip(v, theta.theta)) - float(lam)
        for v, lam in p.facets))


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
    return w.gradient(theta.theta)


def critical_points(w: Superpotential, p: Polytope, grid_im: int = 4,
                    grid_re: int = 2) -> list[CriticalPoint]:
    """All critical points of W with Im(Theta) in [0, 2 pi)^n.

    The starts: real parts at the vertex centroid and at grid_re - 1
    evenly spaced points on its segment to each vertex, moved one unit
    outward along every coordinate (those vertices themselves at
    grid_re = 2), imaginary parts on a 2 pi / grid_im lattice. The
    Kushnirenko count K = n! Vol(conv{v_j}) of the facet normals bounds
    the isolated critical points counted with multiplicity, so K
    certified, pairwise distinct points are all of them. When the
    centroid's starts number at most CERTIFIED_PASS_STARTS and at least K,
    which a pass keeping at most one point per start needs, a pure-Python
    Newton pass runs them one at a time and stops at K such points.
    Otherwise, or when it ends with fewer, one batched multistart Newton
    run takes every start; its converged points are deduplicated mod
    2 pi i, keeping the smallest gradient, and a run that finds another
    number than K distinct nondegenerate points warns. Both paths finish
    alike: solve.dedup_mod_2pi merges, _critical_point makes each record
    and solve.sort_key orders them, all in plain Python. A search whose
    starts hold more than MAX_NEWTON_ENTRIES Hessian entries raises
    PolytopeError before it runs.
    """
    n = w.dim
    n_starts = (1 + len(p.vertices()) * (grid_re - 1)) * grid_im ** n
    if n_starts * n * n > MAX_NEWTON_ENTRIES:
        raise PolytopeError(
            f"critical point search is limited to {MAX_NEWTON_ENTRIES} "
            f"Hessian entries (Newton starts x dimension^2), the "
            f"{grid_re}x{grid_im} grid in dimension {n} needs {n_starts} "
            f"starts, {n_starts * n * n} entries")
    count = p.kushnirenko_count
    if count <= grid_im ** n <= CERTIFIED_PASS_STARTS:
        found = _certified_pass(w, p, grid_im, count)
        if len(found) == count:
            return found
    found = _newton_search(w, p, grid_re, grid_im)
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
# each step is capped at MAX_STEP, and a run stops after MAX_ITER steps
MAX_STEP = 2.0
MAX_ITER = 80
# the pure-Python pass runs when the centroid has at most this many starts
# (n <= 3 at grid_im = 4); a point it keeps passes Kantorovich's test
# h = beta |H^-1| L <= KANTOROVICH_H, half of the theorem's 1/2 as margin
# for the rounding of h itself
CERTIFIED_PASS_STARTS = 64
KANTOROVICH_H = 0.25


def _size(z) -> float:
    return 1.0 + max(abs(t) for t in z)


def _certified_pass(w: Superpotential, p: Polytope, grid_im: int,
                    count: int) -> list[CriticalPoint]:
    """Newton from the vertex centroid's starts, in _newton_search's
    order, one at a time, until count certified points are kept.

    A converged point is kept when dedup_mod_2pi keeps it after the kept
    points, at DEDUP_TOL, and _certify passes it. Each kept point then
    holds a simple root within 2 beta, far below DEDUP_TOL, so the kept
    roots are distinct. Returns the kept points, sorted as
    _newton_search sorts its points.
    """
    n, centroid = w.dim, [float(x) for x in p.centroid]
    angle = TWO_PI / grid_im
    kept: list[CriticalPoint] = []
    for k in itertools.product(range(grid_im), repeat=n):
        if n > 1:  # np.meshgrid's order: coordinate 1 varies slowest
            k = (k[1], k[0]) + k[2:]
        z = _newton_pure(w, [complex(c, -i * angle)
                             for c, i in zip(centroid, k)])
        if z is None:
            continue
        re, im = [t.real for t in z], [wrap_angle(-t.imag) for t in z]
        points = [cp.point for cp in kept]
        if dedup_mod_2pi([q.fiber for q in points] + [re],
                         [q.holonomy for q in points] + [im],
                         DEDUP_TOL)[-1] < len(kept):
            continue
        cp = _certify(w, [r - 1j * i for r, i in zip(re, im)])
        if cp is not None:
            kept.append(cp)
            if len(kept) == count:
                break
    return sorted(kept, key=_point_key)


def _newton_pure(w: Superpotential, z: list[complex]) -> list[complex] | None:
    """One start of _newton_search's iteration in plain Python: the
    accepted point, or None."""
    for _ in range(MAX_ITER):
        _, _, g, h = w.scaled_at(z)
        sol = _solve(h, [g])
        if sol is None:  # regularised as _newton_step does
            reg = 1e-12 * max(abs(x) for row in h for x in row)
            sol = _solve([[x + reg * (a == b) for b, x in enumerate(row)]
                          for a, row in enumerate(h)], [g])
            if sol is None:
                return None
        step = sol[0]
        norm = _norm(step)
        if not math.isfinite(norm):
            return None
        if norm > MAX_STEP:
            step = [s * (MAX_STEP / norm) for s in step]
        z = [t - s for t, s in zip(z, step)]
        if norm <= STOP_STEP * _size(z):
            break
    return z if norm <= ACCEPT_STEP * _size(z) else None


def _certify(w: Superpotential, z: list[complex]) -> CriticalPoint | None:
    """The _critical_point at z when it passes Kantorovich's test and is
    nondegenerate, else None.

    With H and the gradient g of W e^-c at z, beta = |H^-1 g| and
    R = 2 beta, L = sum_j |w_j| e^(R |v_j|) |v_j|^3 bounds the Lipschitz
    constant of H on the ball of radius R, and h = beta |H^-1| L <= 1/2
    puts one simple root of grad W in it (Kantorovich 1948), with the
    Frobenius norm bounding |H^-1|. Degeneracy is the record's own test,
    the one the batched search counts by.
    """
    n = w.dim
    _, ew, g, h = w.scaled_at(z)
    # H^-1 g, then the columns of H^-1
    sol = _solve(h, [g] + [[float(a == b) for b in range(n)]
                           for a in range(n)])
    if sol is None:
        return None
    step, inv = sol[0], sol[1:]
    lengths = [math.sqrt(sum(x * x for x in v)) for v in w.exponents]
    try:
        beta = _norm(step)
        lip = sum(abs(e) * math.exp(2 * beta * r) * r ** 3
                  for e, r in zip(ew, lengths))
        inv_f = _norm([x for row in inv for x in row])
    except OverflowError:
        return None
    # points more than DEDUP_TOL apart have disjoint balls when 4 beta is
    # less
    if not (beta * inv_f * lip <= KANTOROVICH_H and 4 * beta < DEDUP_TOL):
        return None
    cp = _critical_point(w, z)
    return None if cp.degenerate else cp


def _critical_point(w: Superpotential, z: list[complex]) -> CriticalPoint:
    """The record of a converged point z: |grad W|, the condition number
    of W's Hessian H, and whether z is degenerate.

    D = diag(sum_j |w_j| v_ja^2), over the weights w_j of W e^-c, bounds
    H's diagonal, and S = D^-1/2 H D^-1/2 has entries of size 1
    even where the weights of different coordinates differ by orders of
    magnitude. z is degenerate when the least singular value of S is at
    most DEGENERATE_SV times the dimension, or when every weight of some
    coordinate underflows next to the largest, so that a D_a is 0.
    """
    c, ew, g, h = w.scaled_at(z)
    dd = [sum(abs(e) * v[a] ** 2 for e, v in zip(ew, w.exponents))
          for a in range(w.dim)]
    try:
        residual = _norm(g) * math.exp(c)
    except OverflowError:
        residual = math.inf
    sv = _singular_values(h)
    degenerate = min(dd) == 0
    if not degenerate:
        d = [1 / math.sqrt(x) for x in dd]
        degenerate = _singular_values(
            [[x * d[a] * d[b] for b, x in enumerate(row)]
             for a, row in enumerate(h)])[-1] <= DEGENERATE_SV * w.dim
    return CriticalPoint(MirrorPoint(tuple(z)), residual,
                         sv[0] / sv[-1] if sv[-1] > 0 else math.inf,
                         degenerate)


def _point_key(cp: CriticalPoint) -> tuple:
    """The sort_key of a critical point: Re Theta, then Im Theta."""
    theta = cp.point.theta
    return sort_key([t.real for t in theta] + [t.imag for t in theta],
                    DEDUP_TOL)


def _norm(x) -> float:
    return math.hypot(*[c for t in x for c in (t.real, t.imag)])


def _solve(h, rhs) -> list[list[complex]] | None:
    """h^-1 b for each vector b of rhs, by Gaussian elimination with
    partial pivoting; None when a pivot is 0."""
    n, m = len(h), len(rhs)
    # row i of h, then entry i of each right-hand side
    a = [list(h[i]) + [b[i] for b in rhs] for i in range(n)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        if not top[k]:
            return None
        for row in a[k + 1:]:
            f = row[k] / top[k]
            if f:
                for j in range(k + 1, n + m):
                    row[j] -= f * top[j]
    x = [[0j] * n for _ in range(m)]
    for i in range(n - 1, -1, -1):
        row = a[i]
        for c, xc in enumerate(x):
            xc[i] = (row[n + c] - sum([row[j] * xc[j]
                                       for j in range(i + 1, n)])) / row[i]
    return x


def _singular_values(h) -> list[float]:
    """The singular values of a square complex matrix, largest first.

    One-sided Jacobi (Hestenes 1958): each pair of columns is rotated
    until they are orthogonal to working precision, and the column norms
    are then the singular values. Scaling by a power of two first keeps
    tiny entries from underflowing; a column at the matrix's rounding
    level is 0 and rotated no further, as subnormals lose the phase.
    """
    n = len(h)
    big = max((abs(complex(e)) for row in h for e in row), default=0.0)
    shift = -math.frexp(big)[1] if 0 < big < math.inf else 0
    cols = [[complex(math.ldexp(h[i][j].real, shift),
                     math.ldexp(h[i][j].imag, shift)) for i in range(n)]
            for j in range(n)]
    negligible = 1e-16 * _norm([e for col in cols for e in col])
    for _ in range(60):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                x, y = cols[p], cols[q]
                nx, ny = _norm(x), _norm(y)
                if min(nx, ny) <= negligible:
                    continue
                gamma = sum(a.conjugate() * b for a, b in zip(x, y))
                off = abs(gamma)
                if off <= 1e-15 * nx * ny:
                    continue
                rotated = True
                # turn y by the phase of gamma so that x^H y = |gamma|,
                # then rotate the pair as in the real method
                y = [b * (gamma.conjugate() / off) for b in y]
                zeta = (ny - nx) / off * ((ny + nx) / 2)
                t = math.copysign(1.0, zeta) / (abs(zeta)
                                                + math.hypot(1.0, zeta))
                c = 1 / math.sqrt(1 + t * t)
                s = c * t
                cols[p] = [c * a - s * b for a, b in zip(x, y)]
                cols[q] = [s * a + c * b for a, b in zip(x, y)]
        if not rotated:
            break
    return sorted((math.ldexp(_norm(col), -shift) for col in cols),
                  reverse=True)


def _newton_step(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Newton steps h^-1 g of stacked Hessians h and gradients g."""
    import numpy as np

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
    """One batched multistart Newton run from the starts of
    critical_points.

    numpy runs the iteration alone. The accepted rows, ranked by their
    gradient, go through the pass's finishing path: dedup_mod_2pi, then
    _critical_point on each kept row, sorted by _point_key.
    """
    import numpy as np

    n = w.dim
    c = np.array(p.centroid, dtype=float)
    vs = np.array(p.vertices(), dtype=float)
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
    for _ in range(MAX_ITER):
        _, _, g, h = w.scaled(z[alive])
        step = _newton_step(h, g)
        step_norm = np.linalg.norm(step, axis=1)
        last[alive] = step_norm
        cap = step_norm > MAX_STEP
        step[cap] *= (MAX_STEP / step_norm[cap])[:, None]
        z[alive] -= step
        alive = alive[step_norm > STOP_STEP * size(z[alive])]
        if not alive.size:
            break

    # accepted rows ranked by |grad W| e^-c, their gradient relative to
    # their largest weight
    _, _, g = w.scaled_gradient(z)
    order = np.argsort(np.linalg.norm(g, axis=1), kind="stable")
    order = order[last[order] <= ACCEPT_STEP * size(z[order])]
    re, im = z.real[order].tolist(), (-z.imag[order]).tolist()
    found = [_critical_point(w, [r - 1j * wrap_angle(a)
                                 for r, a in zip(re[i], im[i])])
             for i in dedup_mod_2pi(re, im, DEDUP_TOL)]
    return sorted(found, key=_point_key)


# facets whose areas at A differ by at most LEVEL_TOL share a level; a
# block balances when its unit-weight sum is at most BALANCE_TOL times the
# total length of its normals; balanced fibers within HOLONOMY_DEDUP_TOL
# of each other, nu taken mod 2 pi, are one
LEVEL_TOL = 1e-7
BALANCE_TOL = 1e-9
HOLONOMY_DEDUP_TOL = 1e-6


def holonomy_balanced(p: Polytope, cps
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
    _warn_non_fano(p)
    lengths = [math.sqrt(sum(c * c for c in v)) for v in p.normals]
    found, tests = [], []
    for cp in cps:
        a, nu = cp.point.fiber, HolonomyVector(cp.point.holonomy)
        if any(l <= 0 for l in p.ell(a)):
            tests.append(LevelTest(a, nu.nu, None, None, None,
                                   "A lies outside the polytope"))
            continue
        part = _level_partition(p, FiberPoint(a), LEVEL_TOL)
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
                           if sol.unique else a)
        found.append((len(tests), BalancedSolution(
            point, nu, _level_partition(p, point, LEVEL_TOL), resid)))
        tests.append(LevelTest(a, nu.nu, part, None, resid, ""))
    kept = dedup_mod_2pi([s.point.coords for _, s in found],
                         [s.nu.nu for _, s in found], HOLONOMY_DEDUP_TOL)
    for i in set(range(len(found))) - set(kept):
        t = found[i][0]
        tests[t] = tests[t]._replace(
            message="merged with another balanced critical point")
    solutions = sorted((found[i] for i in kept), key=lambda ts: sort_key(
        ts[1].point.coords + ts[1].nu.nu, HOLONOMY_DEDUP_TOL))
    for index, (t, _) in enumerate(solutions):
        tests[t] = tests[t]._replace(solution=index)
    return [s for _, s in solutions], tests


def balanced_fibers_with_holonomy(p: Polytope) -> list[BalancedSolution]:
    """Balanced fibers with flat line bundle twists: the critical points
    of W that pass the per-level test of holonomy_balanced."""
    return holonomy_balanced(
        p, critical_points(build_superpotential(p), p))[0]


def obstruction_class(p: Polytope, a: FiberPoint,
                      nu: HolonomyVector | None = None) -> NovikovVector:
    """o(L) = sum_j h^{v_j} T^{Area(beta_j)} q, a scalar Novikov element,
    one unmerged term per basic disc."""
    return _disc_terms(p, a, nu, [(1,)] * p.num_facets)


def check_o_equals_W(p: Polytope, a: FiberPoint,
                     nu: HolonomyVector | None = None) -> float:
    """|o(L) at T^{2pi}=e^{-1} (q dropped) - W(A - i nu)| / e^c, with e^c
    W's largest weight as in Superpotential.scaled_at, so that neither
    side underflows deep inside a large polytope."""
    c, ew, _, _ = build_superpotential(p).scaled_at(_theta(a, nu))
    return abs(obstruction_class(p, a, nu).specialize(-c)[0] - sum(ew))


def check_delta2_equals_gradW(p: Polytope, a: FiberPoint,
                              nu: HolonomyVector | None = None) -> float:
    """||delta2<pt> at T^{2pi}=e^{-1} (sign, q dropped) + grad W|| / e^c,
    as in check_o_equals_W."""
    c, _, grad, _ = build_superpotential(p).scaled_at(_theta(a, nu))
    # no terms when all area levels cancelled exactly
    vec = delta2_point(p, a, nu).specialize(-c) or (0j,) * p.dim
    sign = (-1) ** p.dim
    return _norm([sign * x + g for x, g in zip(vec, grad)])


def _theta(a: FiberPoint, nu: HolonomyVector | None) -> list[complex]:
    """Theta = A - i nu."""
    return [x - 1j * y for x, y in zip(
        a.as_floats(), nu.nu if nu is not None else [0.0] * len(a.coords))]
