"""Floer boundary of the point class, vanishing criterion, balanced fibers.

The boundary delta_2<pt> is a Novikov-weighted sum of ray generators; its
vanishing (per area level over the formal ring, or after the T^{2pi}=e^{-1}
specialization) decides whether the fiber's Floer cohomology is 0 or 2^n.
Balanced fibers are found exactly over the formal ring and by damped
least-squares over fiber position and holonomy in the twisted case.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exact
from .discs import FiberPoint
from .lattice import (Fan, Polytope, PolytopeError, is_fano, is_smooth,
                      normal_fan)
from .solve import dedup_mod_2pi, least_squares, sort_key, wrap_angle

MAX_FACETS_FOR_PARTITIONS = 12


class UnsupportedRegimeError(ValueError):
    """The vanishing criterion is only established for Fano fans."""


class UnsupportedRegimeWarning(UserWarning):
    """Non-Fano input: results are conjectural."""


@dataclass(frozen=True)
class HolonomyVector:
    nu: tuple[float, ...]

    @classmethod
    def of(cls, *nu) -> "HolonomyVector":
        return cls(tuple(float(x) % (2 * math.pi) for x in nu))

    def factor(self, v) -> complex:
        """Boundary holonomy e^{i <nu, v>} along the disc through divisor v."""
        return cmath.exp(1j * sum(n * c for n, c in zip(self.nu, v)))

    @property
    def trivial(self) -> bool:
        return all(x == 0.0 for x in self.nu)


@dataclass(frozen=True)
class NovikovTerm:
    """coefficient * T^{2 pi level} * q^{q_power} * vector."""

    coefficient: complex
    level: object  # Fraction in exact mode, float otherwise
    q_power: int
    vector: tuple


@dataclass(frozen=True)
class NovikovVector:
    terms: tuple[NovikovTerm, ...]
    exact: bool = False

    def merged(self, tol: float = 1e-9) -> "NovikovVector":
        """Fold coefficients into vectors and combine equal (level, q) terms."""
        groups: list[list[NovikovTerm]] = []
        for t in sorted(self.terms, key=lambda t: (float(t.level), t.q_power)):
            for g in groups:
                same = (g[0].q_power == t.q_power and
                        (g[0].level == t.level if self.exact
                         else abs(float(g[0].level) - float(t.level)) <= tol))
                if same:
                    g.append(t)
                    break
            else:
                groups.append([t])
        out = []
        for g in groups:
            n = len(g[0].vector)
            if self.exact:
                vec = tuple(
                    sum(Fraction(t.coefficient) * Fraction(t.vector[i])
                        for t in g) for i in range(n))
                zero = all(v == 0 for v in vec)
            else:
                vec = tuple(
                    sum(complex(t.coefficient) * complex(t.vector[i])
                        for t in g) for i in range(n))
                zero = all(abs(v) <= tol for v in vec)
            if not zero:
                out.append(NovikovTerm(1 if self.exact else 1.0 + 0j,
                                       g[0].level, g[0].q_power, vec))
        return NovikovVector(tuple(out), self.exact)

    def is_zero(self, tol: float = 1e-10) -> bool:
        for t in self.merged(tol).terms:
            if self.exact:
                if any(v != 0 for v in t.vector):
                    return False
            elif any(abs(complex(v)) > tol for v in t.vector):
                return False
        return True

    def specialize(self) -> np.ndarray:
        """Evaluate at T^{2 pi} = e^{-1}, dropping sign and grading units."""
        n = len(self.terms[0].vector) if self.terms else 0
        acc = np.zeros(n, dtype=complex)
        for t in self.terms:
            acc += math.exp(-float(t.level)) * np.array(
                [complex(v) for v in t.vector])
        return acc


@dataclass(frozen=True)
class AreaPartition:
    blocks: tuple[tuple[int, ...], ...]
    levels: tuple


@dataclass(frozen=True)
class BalancedSolution:
    point: FiberPoint
    nu: HolonomyVector | None
    partition: AreaPartition
    residual: float


@dataclass(frozen=True)
class BalancedDescription:
    factor_dims: tuple[int, ...]
    factor_levels: tuple
    text: str


@dataclass(frozen=True)
class PartitionDiagnostic:
    blocks: tuple[tuple[int, ...], ...]
    consistent: bool
    unique: bool
    solution: tuple | None
    violations: tuple  # (facet_i, facet_j, Fraction: ell_i - ell_j at solution)
    converged: int
    message: str


@dataclass(frozen=True)
class HolonomySearchResult:
    solutions: tuple[BalancedSolution, ...]
    diagnostics: tuple[PartitionDiagnostic, ...]


def delta2_point(p: Polytope, a: FiberPoint,
                 nu: HolonomyVector | None = None) -> NovikovVector:
    """Floer coboundary of the point class, merged by equal area level.

    One term per facet with coefficient (-1)^n h^{v_j}, area 2 pi ell_j(A)
    and grading weight q; equal-area terms are combined.
    """
    a.require_interior(p)
    n = p.dim
    sign = (-1) ** n
    exact = a.exact and (nu is None or nu.trivial)
    terms = []
    for (v, _), ell in zip(p.facets, a.ell(p)):
        if exact:
            coeff = Fraction(sign)
            level = Fraction(ell)
            vec = tuple(Fraction(c) for c in v)
        else:
            h = nu.factor(v) if nu is not None else 1.0 + 0j
            coeff = sign * h
            level = float(ell)
            vec = tuple(complex(c) for c in v)
        terms.append(NovikovTerm(coeff, level, 1, vec))
    return NovikovVector(tuple(terms), exact).merged()


def _require_fano(p: Polytope, fan: Fan | None) -> Fan:
    fan = fan or normal_fan(p)
    if not (is_smooth(fan) and is_fano(fan)):
        raise UnsupportedRegimeError(
            "Floer vanishing criterion requires a smooth Fano fan")
    return fan


def _warn_non_fano(p: Polytope, fan: Fan | None) -> Fan:
    fan = fan or normal_fan(p)
    if not (is_smooth(fan) and is_fano(fan)):
        warnings.warn("non-Fano fan: balanced-fiber results are conjectural "
                      "in this regime", UnsupportedRegimeWarning, stacklevel=3)
    return fan


def delta2_vanishes(p: Polytope, a: FiberPoint, d2: NovikovVector,
                    coefficients: str = "novikov", tol: float = 1e-10
                    ) -> bool:
    """Whether delta_2<pt> = d2 at fiber a vanishes: per area level over the
    Novikov ring, or at T^{2pi} = e^{-1} ("exp") up to tol times the total
    weight max(1, sum_j e^{-ell_j})."""
    if coefficients == "novikov":
        return d2.is_zero(tol)
    if coefficients != "exp":
        raise ValueError(f"unknown coefficient mode {coefficients!r}")
    scale = sum(math.exp(-float(l)) for l in a.ell(p))
    return bool(np.linalg.norm(d2.specialize()) <= tol * max(1.0, scale))


def hf_rank(p: Polytope, a: FiberPoint, nu: HolonomyVector | None = None,
            coefficients: str = "novikov", fan: Fan | None = None,
            tol: float = 1e-10) -> int:
    """Floer cohomology rank: 2^n when delta_2<pt> vanishes, else 0."""
    _require_fano(p, fan)
    vanish = delta2_vanishes(p, a, delta2_point(p, a, nu), coefficients, tol)
    return 2 ** p.dim if vanish else 0


def spectral_rank_check(c) -> int:
    """Total cohomology rank of wedging by sum_j c_j L_j on the 2^n complex."""
    c = np.asarray(c, dtype=complex)
    n = c.size
    basis = [frozenset(s) for k in range(n + 1)
             for s in itertools.combinations(range(n), k)]
    index = {s: i for i, s in enumerate(basis)}
    dim = len(basis)
    mat = np.zeros((dim, dim), dtype=complex)
    for s in basis:
        col = index[s]
        for j in range(n):
            if j in s:
                continue
            target = s | {j}
            sign = (-1) ** sum(1 for t in sorted(target) if t < j)
            mat[index[target], col] += sign * c[j]
    sv = np.linalg.svd(mat, compute_uv=False)
    cutoff = dim * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    r = int(np.sum(sv > max(cutoff, 1e-12)))
    return dim - 2 * r


def delta_k_vanishing(k: int) -> bool:
    """Dimension count: the coboundary contributions vanish for index >= 4."""
    if k % 2 != 0:
        raise ValueError(f"odd Maslov index {k} impossible for orientable "
                         f"torus fibers")
    if k < 2:
        raise ValueError("index must be >= 2")
    return k >= 4


# ---------------------------------------------------------------------------
# partition machinery


def check_partition_scale(n_facets: int) -> None:
    """Input error when set-partition enumeration would blow up."""
    if n_facets > MAX_FACETS_FOR_PARTITIONS:
        raise PolytopeError(
            f"balanced-fiber search enumerates facet partitions and is "
            f"limited to {MAX_FACETS_FOR_PARTITIONS} facets; this polytope "
            f"has {n_facets}")


def _zero_sum_subsets(gens) -> list[frozenset]:
    n = len(gens[0])
    out = []
    for size in range(2, len(gens) + 1):
        for sub in itertools.combinations(range(len(gens)), size):
            if all(sum(gens[j][i] for j in sub) == 0 for i in range(n)):
                out.append(frozenset(sub))
    return out


def _unit_feasible_subsets(gens) -> list[frozenset]:
    """Blocks that could support sum_j h_j v_j = 0 with unimodular h_j.

    Necessary coordinatewise polygon inequality: no single |v_j^alpha| may
    exceed the sum of the others.
    """
    n = len(gens[0])
    out = []
    for size in range(2, len(gens) + 1):
        for sub in itertools.combinations(range(len(gens)), size):
            ok = True
            for i in range(n):
                mags = sorted(abs(gens[j][i]) for j in sub)
                if sum(mags) > 0 and mags[-1] > sum(mags[:-1]):
                    ok = False
                    break
            if ok:
                out.append(frozenset(sub))
    return out


def _covers(n_facets: int, subsets: list[frozenset]):
    """Exact covers of {0..N-1} by the given blocks, deterministic order."""
    subsets = sorted(subsets, key=lambda s: sorted(s))

    def rec(remaining: frozenset, chosen: tuple):
        if not remaining:
            yield tuple(sorted(chosen, key=sorted))
            return
        lead = min(remaining)
        for s in subsets:
            if lead in s and s <= remaining:
                yield from rec(remaining - s, chosen + (s,))

    seen = set()
    for cover in rec(frozenset(range(n_facets)), ()):
        key = tuple(tuple(sorted(b)) for b in cover)
        if key not in seen:
            seen.add(key)
            yield key


def _equal_area_system(p: Polytope, blocks):
    rows, rhs, pairs = [], [], []
    for block in blocks:
        i0 = block[0]
        v0, l0 = p.facets[i0]
        for i in block[1:]:
            v, l = p.facets[i]
            rows.append([a - b for a, b in zip(v0, v)])
            rhs.append(l0 - l)
            pairs.append((i0, i))
    return rows, rhs, pairs


def equal_area_certificate(p: Polytope, blocks):
    """Exact solve of the equal-area constraints of a candidate partition.

    Returns (LinearSolution, violations) where violations list the exact
    leftover offsets ell_i - ell_j at the solution of the consistent part;
    a nonzero entry certifies infeasibility of the partition.
    """
    rows, rhs, pairs = _equal_area_system(p, blocks)
    sol = _exact.solve(rows, rhs) if rows else _exact.solve([[0] * p.dim], [0])
    violations = []
    for eq_idx, resid in sorted(sol.violations.items()):
        i, j = pairs[eq_idx]
        violations.append((i, j, -resid))  # ell_i - ell_j at the solution
    return sol, tuple(violations)


def _level_partition(p: Polytope, a: FiberPoint, tol: float = 1e-9):
    ells = a.ell(p)
    if a.exact:
        levels = sorted(set(Fraction(l) for l in ells))
        blocks = [tuple(j for j, l in enumerate(ells) if Fraction(l) == lv)
                  for lv in levels]
    else:
        order = sorted(range(len(ells)), key=lambda j: float(ells[j]))
        blocks, levels = [], []
        for j in order:
            lj = float(ells[j])
            if levels and abs(lj - levels[-1]) <= tol:
                blocks[-1] = blocks[-1] + (j,)
            else:
                blocks.append((j,))
                levels.append(lj)
        blocks = [tuple(sorted(b)) for b in blocks]
    return AreaPartition(tuple(blocks), tuple(levels))


def balanced_fibers_novikov(p: Polytope, fan: Fan | None = None
                            ) -> list[BalancedSolution]:
    """Exact enumeration of fibers balanced over the formal Novikov ring
    with trivial holonomy: every equal-area level set of ray generators
    must sum to zero.
    """
    _warn_non_fano(p, fan)
    check_partition_scale(p.num_facets)
    gens = p.normals
    subsets = _zero_sum_subsets(gens)
    found: dict[tuple, BalancedSolution] = {}
    for blocks in _covers(p.num_facets, subsets):
        sol, violations = equal_area_certificate(p, blocks)
        if violations or sol.free:
            continue
        x = tuple(sol.particular)
        point = FiberPoint(x, exact=True)
        if any(l <= 0 for l in point.ell(p)):
            continue
        if x in found:
            continue
        d2 = delta2_point(p, point, None)
        assert d2.is_zero(), "balanced candidate fails exact delta2 check"
        found[x] = BalancedSolution(point, None, _level_partition(p, point),
                                    0.0)
    return sorted(found.values(), key=lambda s: s.point.coords)


def _holonomy_residual(p: Polytope, blocks, vfloat, lam):
    """Row-wise residuals of the equal-area and per-block balancing
    equations at points x = (A, nu), one point per row."""
    n = p.dim

    def fun(x):
        a, nu = x[:, :n], x[:, n:]
        ell = a @ vfloat.T - lam
        phase = np.exp(1j * (nu @ vfloat.T))
        cols = []
        for block in blocks:
            i0 = block[0]
            for i in block[1:]:
                cols.append(ell[:, i0] - ell[:, i])
            idx = list(block)
            s = phase[:, idx] @ vfloat[idx]
            cols.extend(s.real.T)
            cols.extend(s.imag.T)
        return np.column_stack(cols)

    return fun


def holonomy_search(p: Polytope, fan: Fan | None = None, grid: int = 6,
                    residual_tol: float = 1e-10, dedup_tol: float = 1e-6
                    ) -> HolonomySearchResult:
    """Balanced fibers with flat line bundle twists.

    Candidate partitions come from unit-feasibility pruning; the equal-area
    part is solved exactly and the holonomy equations by damped least
    squares from a 2 pi / grid lattice of starts, one batch per partition.
    """
    _warn_non_fano(p, fan)
    check_partition_scale(p.num_facets)
    n = p.dim
    gens = p.normals
    vfloat = np.array(gens, dtype=float)
    lam = np.array([float(l) for l in p.offsets])
    verts = p.vertices()
    centroid = np.array(
        [float(sum(v[i] for v in verts)) / len(verts) for i in range(n)])

    found = []  # (a, nu, residual) in partition order, then start order
    diagnostics: list[PartitionDiagnostic] = []
    nu_axis = [2 * math.pi * k / grid for k in range(grid)]
    nu_starts = np.array(list(itertools.product(nu_axis, repeat=n)))
    for blocks in _covers(p.num_facets, _unit_feasible_subsets(gens)):
        sol, violations = equal_area_certificate(p, blocks)
        if violations:
            diagnostics.append(PartitionDiagnostic(
                blocks, False, False, None, violations, 0,
                "equal-area constraints inconsistent"))
            continue
        a_start = (np.array([float(x) for x in sol.particular])
                   if sol.unique else centroid)
        x0 = np.hstack([np.tile(a_start, (len(nu_starts), 1)), nu_starts])
        x, resid = least_squares(_holonomy_residual(p, blocks, vfloat, lam),
                                 x0)
        converged = 0
        for row in np.flatnonzero(resid <= residual_tol):
            a_sol = tuple(float(v) for v in x[row, :n])
            if any(float(l) <= 0 for l in p.ell(a_sol)):
                continue
            converged += 1
            found.append((a_sol, wrap_angle(x[row, n:]), float(resid[row])))
        diagnostics.append(PartitionDiagnostic(
            blocks, True, sol.unique,
            tuple(sol.particular) if sol.unique else None, (), converged,
            "" if converged else "no start converged to a balanced solution"))
    solutions = []
    if found:
        a_all, nu_all, _ = zip(*found)
        for i in dedup_mod_2pi(a_all, nu_all, dedup_tol):
            a_sol, nu_sol, resid = found[i]
            point = FiberPoint(a_sol, exact=False)
            solutions.append(BalancedSolution(
                point, HolonomyVector(tuple(float(v) for v in nu_sol)),
                _level_partition(p, point, tol=1e-7), resid))
    solutions.sort(key=lambda s: sort_key(s.point.coords + s.nu.nu,
                                          dedup_tol))
    return HolonomySearchResult(tuple(solutions), tuple(diagnostics))


def balanced_fibers_with_holonomy(p: Polytope, fan: Fan | None = None,
                                  **kw) -> list[BalancedSolution]:
    return list(holonomy_search(p, fan, **kw).solutions)


def describe_balanced(p: Polytope, s: BalancedSolution) -> BalancedDescription:
    """Reduction-by-stages form of a trivially-twisted balanced fiber:
    a quotient of Clifford tori in a product of projective spaces."""
    if s.nu is not None and not s.nu.trivial:
        raise ValueError("reduction-by-stages description is only available "
                         "for trivial-holonomy balanced fibers")
    gens = p.normals
    n = p.dim
    dims, levels, parts = [], [], []
    for block in s.partition.blocks:
        if any(sum(gens[j][i] for j in block) != 0 for i in range(n)):
            raise ValueError(f"block {block} generators do not sum to zero")
        for sub in _minimal_zero_sum_refinement(gens, block):
            d = len(sub)
            level = -sum((Fraction(p.offsets[j]) for j in sub), Fraction(0))
            dims.append(d)
            levels.append(level)
            parts.append(f"Clifford torus of P^{d - 1} at level {level}")
    text = (" x ".join(parts) +
            f", quotient by a rank-{p.num_facets - p.dim - len(dims)} torus")
    return BalancedDescription(tuple(dims), tuple(levels), text)


def _minimal_zero_sum_refinement(gens, block):
    """Deterministically split a zero-sum index block into minimal zero-sum
    sub-blocks (smallest size first, then lexicographic)."""
    n = len(gens[0])
    remaining = list(block)
    out = []
    while remaining:
        lead = remaining[0]
        rest = [j for j in remaining if j != lead]
        chosen = None
        for size in range(1, len(rest) + 1):
            for sub in itertools.combinations(rest, size):
                cand = (lead,) + sub
                if all(sum(gens[j][i] for j in cand) == 0 for i in range(n)):
                    chosen = cand
                    break
            if chosen:
                break
        if chosen is None:
            # no proper refinement: keep the whole remainder together
            chosen = tuple(remaining)
        out.append(chosen)
        remaining = [j for j in remaining if j not in chosen]
    return out
