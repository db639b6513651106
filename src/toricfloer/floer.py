"""Floer boundary of the point class, vanishing criterion, balanced fibers.

The boundary delta_2<pt> is a Novikov-weighted sum of ray generators; its
vanishing (per area level over the formal ring, or after the T^{2pi}=e^{-1}
specialization) decides whether the fiber's Floer cohomology is 0 or 2^n.
Balanced fibers over the formal ring come from the one level partition the
offsets force and one exact equal-area solve. Balanced fibers with
holonomy are critical points of the mirror superpotential, so
`mirror.balanced_fibers_with_holonomy` finds them among those; the
equal-area certificate here makes their fiber positions exact.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from fractions import Fraction
from typing import NamedTuple

from . import _exact
from .discs import FiberPoint
from .lattice import Polytope, PolytopeError

MAX_FACETS_FOR_PARTITIONS = 12
# spectral_rank_check builds a dense 2^n x 2^n complex matrix: 256 MB at
# n = 12, 4 GB at n = 14
MAX_SPECTRAL_DIM = 12


class UnsupportedRegimeError(ValueError):
    """The vanishing criterion is only established for Fano fans."""


class UnsupportedRegimeWarning(UserWarning):
    """Non-Fano input: results are conjectural."""


class HolonomyVector(NamedTuple):
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


class NovikovTerm(NamedTuple):
    """coefficient * T^{2 pi level} * q^{q_power} * vector."""

    coefficient: complex
    level: object  # Fraction in exact mode, float otherwise
    q_power: int
    vector: tuple


class NovikovVector(NamedTuple):
    terms: tuple[NovikovTerm, ...]
    exact: bool = False

    def merged(self, tol: float = 1e-9) -> "NovikovVector":
        """Fold coefficients into vectors and combine the terms of one q
        power whose levels lie within tol of the first, dropping vectors
        whose entries all lie within tol of 0. Exact vectors are summed
        over Q with tol 0."""
        num = Fraction if self.exact else complex
        tol = 0 if self.exact else tol
        groups: list[list[NovikovTerm]] = []
        for t in sorted(self.terms, key=lambda t: (t.level, t.q_power)):
            for g in groups:
                if (g[0].q_power == t.q_power and
                        abs(g[0].level - t.level) <= tol):
                    g.append(t)
                    break
            else:
                groups.append([t])
        out = []
        for g in groups:
            vec = tuple(sum(num(t.coefficient) * num(t.vector[i]) for t in g)
                        for i in range(len(g[0].vector)))
            if any(abs(v) > tol for v in vec):
                out.append(NovikovTerm(num(1), g[0].level, g[0].q_power, vec))
        return NovikovVector(tuple(out), self.exact)

    def is_zero(self, tol: float = 1e-10) -> bool:
        return not self.merged(tol).terms

    def specialize(self, shift: float = 0.0) -> tuple[complex, ...]:
        """Evaluate at T^{2 pi} = e^{-1}, dropping sign and grading units,
        and multiply by e^shift: the sum of each term's coefficient times
        e^{shift - level} times its vector."""
        n = len(self.terms[0].vector) if self.terms else 0
        acc = [0j] * n
        for t in self.terms:
            w = complex(t.coefficient) * math.exp(shift - float(t.level))
            acc = [a + w * complex(v) for a, v in zip(acc, t.vector)]
        return tuple(acc)


class AreaPartition(NamedTuple):
    blocks: tuple[tuple[int, ...], ...]
    levels: tuple


class BalancedSolution(NamedTuple):
    point: FiberPoint
    nu: HolonomyVector | None
    partition: AreaPartition
    residual: float


class BalancedDescription(NamedTuple):
    factor_dims: tuple[int, ...]
    factor_levels: tuple
    text: str


def _disc_terms(p: Polytope, a: FiberPoint, nu: HolonomyVector | None,
                vectors) -> NovikovVector:
    """The basic discs beta_j at (A, nu), unmerged: one term per facet with
    coefficient h^{v_j}, area 2 pi ell_j(A), grading weight q and vector
    vectors[j]. Exact over Q when A is rational and nu trivial, complex
    floats otherwise."""
    ells = a.require_interior(p)
    exact = a.exact and (nu is None or nu.trivial)
    if not exact:
        ells = [float(ell) for ell in ells]
    return NovikovVector(tuple(
        NovikovTerm(1 if exact or nu is None else nu.factor(v), ell, 1, vec)
        for v, ell, vec in zip(p.normals, ells, vectors)), exact)


def delta2_point(p: Polytope, a: FiberPoint,
                 nu: HolonomyVector | None = None) -> NovikovVector:
    """Floer coboundary of the point class, merged by equal area level:
    the basic disc beta_j contributes (-1)^n h^{v_j} T^{2 pi ell_j(A)} q v_j.
    """
    sign = (-1) ** p.dim
    return _disc_terms(p, a, nu, [tuple(sign * c for c in v)
                                  for v in p.normals]).merged()


def _require_fano(p: Polytope) -> None:
    if not (p.fan.smooth and p.fan.fano):
        raise UnsupportedRegimeError(
            "Floer vanishing criterion requires a smooth Fano fan")


def _warn_non_fano(p: Polytope) -> None:
    if not (p.fan.smooth and p.fan.fano):
        warnings.warn("non-Fano fan: balanced-fiber results are conjectural "
                      "in this regime", UnsupportedRegimeWarning, stacklevel=3)


def delta2_vanishes(p: Polytope, a: FiberPoint, d2: NovikovVector,
                    coefficients: str = "novikov", tol: float = 1e-10
                    ) -> bool:
    """Whether delta_2<pt> = d2 at fiber a vanishes: per area level over the
    Novikov ring, where d2 has no term left (delta2_point drops the level
    vectors with no entry above 1e-9), or at T^{2pi} = e^{-1} ("exp") up
    to tol times the total weight sum_j e^{-ell_j}. tol is exp mode's
    relative tolerance. Both sides are divided by the largest weight
    e^{-min ell}, as Superpotential.scaled divides W, so that neither
    underflows deep inside a large polytope."""
    if coefficients == "novikov":
        return d2.is_zero()
    if coefficients != "exp":
        raise ValueError(f"unknown coefficient mode {coefficients!r}")
    ells = [float(l) for l in a.ell(p)]
    low = min(ells)
    scale = sum(math.exp(low - l) for l in ells)
    vec = d2.specialize(low)
    norm = math.sqrt(sum(v.real * v.real for v in vec)
                     + sum(v.imag * v.imag for v in vec))
    return norm <= tol * scale


def hf_rank(p: Polytope, a: FiberPoint, nu: HolonomyVector | None = None,
            coefficients: str = "novikov", tol: float = 1e-10) -> int:
    """Floer cohomology rank: 2^n when delta_2<pt> vanishes, else 0; tol
    is exp mode's relative tolerance, as in delta2_vanishes."""
    _require_fano(p)
    vanish = delta2_vanishes(p, a, delta2_point(p, a, nu), coefficients, tol)
    return 2 ** p.dim if vanish else 0


def spectral_rank_check(c) -> int:
    """Total cohomology rank of wedging by sum_j c_j L_j on the 2^n complex."""
    import numpy as np

    c = np.asarray(c, dtype=complex)
    n = c.size
    if n > MAX_SPECTRAL_DIM:
        raise ValueError(
            f"spectral_rank_check builds a dense 2^n x 2^n matrix and is "
            f"limited to n <= MAX_SPECTRAL_DIM = {MAX_SPECTRAL_DIM}; "
            f"got n = {n}")
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
    """Input error when the zero-sum subset scan (2^N subsets) would blow
    up."""
    if n_facets > MAX_FACETS_FOR_PARTITIONS:
        raise PolytopeError(
            f"balanced-fiber search scans the 2^N facet subsets for zero-sum "
            f"sets and is limited to {MAX_FACETS_FOR_PARTITIONS} facets; this "
            f"polytope has {n_facets}")


def _zero_sum_subsets(gens) -> list[frozenset]:
    n = len(gens[0])
    out = []
    for size in range(2, len(gens) + 1):
        for sub in itertools.combinations(range(len(gens)), size):
            if all(sum(gens[j][i] for j in sub) == 0 for i in range(n)):
                out.append(frozenset(sub))
    return out


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
    """Blocks of facets at equal area, lowest level first: a facet joins the
    current block when within tol of its first level (equal, over Q)."""
    ells = a.ell(p)
    if a.exact:
        tol = 0
    blocks, levels = [], []
    for j in sorted(range(len(ells)), key=ells.__getitem__):
        if levels and abs(ells[j] - levels[-1]) <= tol:
            blocks[-1].append(j)
        else:
            blocks.append([j])
            levels.append(ells[j])
    return AreaPartition(tuple(tuple(sorted(b)) for b in blocks),
                         tuple(levels))


def balanced_fibers_novikov(p: Polytope) -> list[BalancedSolution]:
    """Fibers balanced over the formal Novikov ring with trivial holonomy:
    every equal-area level set of ray generators sums to zero.

    The offsets alone force the level partition. For a zero-sum set S,
    sum_{j in S} ell_j(x) is the constant c_S = -sum_{j in S} lambda_j. Let
    A be balanced with level blocks S_1, S_2, ... at levels L_1 < L_2 < ...
    and R_k the facets left after removing S_1 .. S_{k-1}. Every zero-sum
    S in R_k has c_S / |S| >= L_k, with equality exactly when S lies in
    S_k, and S_k itself attains it. So L_k is the least ratio over the
    zero-sum subsets of R_k and S_k is the union of those attaining it.
    Walking the levels this way either fails (the union is not zero-sum,
    or no zero-sum subset is left) or yields the one partition a balanced
    fiber can have; one exact equal-area solve then decides it. A
    consistent solve is unique, since it pins every ell_j to its level and
    the normals span. Hence at most one solution.
    """
    _warn_non_fano(p)
    check_partition_scale(p.num_facets)
    offsets = p.offsets
    subsets = _zero_sum_subsets(p.normals)
    remaining = frozenset(range(p.num_facets))
    blocks = []
    while remaining:
        ratio = {s: Fraction(-sum(offsets[j] for j in s), len(s))
                 for s in subsets if s <= remaining}
        if not ratio:
            return []
        low = min(ratio.values())
        block = frozenset().union(*(s for s, r in ratio.items() if r == low))
        if block not in ratio:  # the union is not zero-sum
            return []
        blocks.append(tuple(sorted(block)))
        remaining -= block
    sol, violations = equal_area_certificate(p, blocks)
    if violations:
        return []
    point = FiberPoint(tuple(sol.particular))
    if any(l <= 0 for l in point.ell(p)):
        return []
    d2 = delta2_point(p, point, None)
    assert d2.is_zero(), "balanced candidate fails exact delta2 check"
    return [BalancedSolution(point, None, _level_partition(p, point), 0.0)]


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
    sub-blocks: for each lead, the first zero-sum subset of what is left
    that contains it (smallest size first, then lexicographic). What is
    left stays zero-sum, so such a subset always exists."""
    block = sorted(block)
    subsets = [frozenset(block[i] for i in s)
               for s in _zero_sum_subsets([gens[j] for j in block])]
    remaining = frozenset(block)
    out = []
    while remaining:
        lead = min(remaining)
        chosen = next(s for s in subsets if lead in s and s <= remaining)
        out.append(tuple(sorted(chosen)))
        remaining -= chosen
    return out
