"""Holomorphic discs on torus fibers: classes, index, area, Blaschke lifts.

A disc class is recorded by its intersection multiplicities with the toric
divisors; the Blaschke-product lift realizes it explicitly and is used for
numerical verification of the index via the argument principle.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .lattice import Fan, KernelLattice, Polytope

if TYPE_CHECKING:
    import numpy as np


class SingularFiberError(ValueError):
    """Raised when a fiber point sits on the polytope boundary."""


class WindingError(RuntimeError):
    """Numerically non-integral winding number."""


class OverflowGuardError(OverflowError):
    """A superpotential exponent left the range where exp is finite."""


class FiberPoint(NamedTuple):
    """Interior point of the moment polytope, exact or floating."""

    coords: tuple

    @property
    def exact(self) -> bool:
        """Whether every coordinate is an int or a Fraction, the rule by
        which Polytope.ell returns Fractions."""
        return all(isinstance(c, (int, Fraction)) for c in self.coords)

    @classmethod
    def rational(cls, *coords) -> "FiberPoint":
        return cls(tuple(Fraction(c) for c in coords))

    @classmethod
    def numeric(cls, *coords) -> "FiberPoint":
        return cls(tuple(float(c) for c in coords))

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coords)

    def ell(self, p: Polytope):
        return p.ell(self.coords)

    def require_interior(self, p: Polytope) -> list:
        """The facet distances ell_j(A), all positive, else raise
        SingularFiberError."""
        ell = self.ell(p)
        if any(l <= 0 for l in ell):
            raise SingularFiberError(
                f"fiber {self.coords} is singular (not interior)")
        return ell


class _DiscClass(NamedTuple):
    multiplicities: tuple[int, ...]


class DiscClass(_DiscClass):
    __slots__ = ()

    def __new__(cls, multiplicities: tuple[int, ...]):
        if any(m < 0 for m in multiplicities):
            raise ValueError("multiplicities must be nonnegative")
        return tuple.__new__(cls, (multiplicities,))

    def __add__(self, other: "DiscClass") -> "DiscClass":
        return DiscClass(tuple(a + b for a, b in
                               zip(self.multiplicities, other.multiplicities)))

    @property
    def total(self) -> int:
        return sum(self.multiplicities)


def maslov_index(d: DiscClass) -> int:
    """Twice the total intersection multiplicity with the toric divisors."""
    return 2 * d.total


def disc_area_exact(d: DiscClass, a: FiberPoint, p: Polytope) -> Fraction:
    """Area divided by 2*pi, as an exact rational."""
    ell = [Fraction(l) for l in a.require_interior(p)]
    return sum((Fraction(m) * l for m, l in zip(d.multiplicities, ell)),
               Fraction(0))


def disc_area(d: DiscClass, a: FiberPoint, p: Polytope) -> float:
    ell = [float(l) for l in a.require_interior(p)]
    return 2.0 * math.pi * sum(m * l for m, l in zip(d.multiplicities, ell))


def index_two_classes(p: Polytope) -> list[DiscClass]:
    n = p.num_facets
    return [DiscClass(tuple(int(i == j) for i in range(n))) for j in range(n)]


def torus_coordinate_form(j: int, f: Fan) -> tuple[int, ...]:
    """Exponents of the basic disc through divisor j in torus coordinates."""
    if not 0 <= j < len(f.generators):
        raise IndexError(f"facet index {j} out of range")
    return f.generators[j]


def lift_fiber(a: FiberPoint, p: Polytope, k: KernelLattice) -> np.ndarray:
    """Moduli |c_j| = sqrt(2 ell_j(A)) of the boundary torus lift.

    The lift sits on the moment level of the reduction torus:
    (1/2) sum_j Q_ja |c_j|^2 = r_a, which is asserted here.
    """
    import numpy as np

    ell = np.array([float(l) for l in a.require_interior(p)])
    c = np.sqrt(2.0 * ell)
    for row, r in zip(k.basis, k.reduction_level):
        level = 0.5 * sum(q * cj * cj for q, cj in zip(row, c))
        if abs(level - float(r)) > 1e-9 * max(1.0, abs(float(r))):
            raise AssertionError(
                f"moment level mismatch: {level} != {float(r)}")
    return c


class _BlaschkeLift(NamedTuple):
    disc_class: DiscClass
    moduli: tuple[float, ...]
    phases: tuple[float, ...]
    roots: tuple[tuple[complex, ...], ...]


class BlaschkeLift(_BlaschkeLift):
    """Explicit Blaschke-product representative of a disc class."""

    __slots__ = ()

    def __new__(cls, disc_class: DiscClass, moduli: tuple[float, ...],
                phases: tuple[float, ...] = None,
                roots: tuple[tuple[complex, ...], ...] = None):
        if phases is None:
            phases = (0.0,) * len(disc_class.multiplicities)
        if roots is None:
            roots = tuple((0j,) * m for m in disc_class.multiplicities)
        for js in roots:
            for alpha in js:
                if abs(alpha) >= 1:
                    raise ValueError(f"Blaschke root {alpha} not in open disc")
        return tuple.__new__(cls, (disc_class, moduli, phases, roots))


def make_lift(d: DiscClass, a: FiberPoint, p: Polytope, k: KernelLattice,
              phases=None, roots=None) -> BlaschkeLift:
    c = lift_fiber(a, p, k)
    return BlaschkeLift(d, tuple(c), phases, roots)


def evaluate_lift(lift: BlaschkeLift, z: complex) -> tuple[complex, ...]:
    """Coordinates c_j e^{i phi_j} prod_k (z - a_jk) / (1 - conj(a_jk) z)."""
    out = []
    for cj, phi, alphas in zip(lift.moduli, lift.phases, lift.roots):
        val = cj * cmath.exp(1j * phi)
        for alpha in alphas:
            val *= (z - alpha) / (1 - alpha.conjugate() * z)
        out.append(val)
    return tuple(out)


def winding_maslov(lift: BlaschkeLift, samples: int = None,
                   tol: float = 1e-6) -> int:
    """Maslov index via accumulated boundary phase of each coordinate.

    Sample count doubles (up to 2**20) until every coordinate winding is
    integral within `tol`; phase steps above pi/2 also force resampling.
    """
    import numpy as np

    total = lift.disc_class.total
    if samples is None:
        samples = 4 * (total + 1)
    samples = max(samples, 4 * (total + 1))
    while True:
        theta = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
        boundary = np.exp(1j * theta)
        windings = []
        ok = True
        for j in range(len(lift.moduli)):
            vals = np.array([evaluate_lift(lift, z)[j] for z in boundary])
            phases = np.angle(vals)
            steps = np.diff(np.concatenate([phases, phases[:1]]))
            steps = (steps + np.pi) % (2 * np.pi) - np.pi
            if np.max(np.abs(steps)) > np.pi / 2:
                ok = False
                break
            w = float(steps.sum() / (2 * np.pi))
            if abs(w - round(w)) > tol:
                ok = False
                break
            windings.append(round(w))
        if ok:
            return 2 * sum(windings)
        if samples >= 2 ** 20:
            raise WindingError(
                f"winding did not stabilize at {samples} samples")
        samples *= 2
