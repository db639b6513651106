"""Exact combinatorics of moment polytopes and their normal fans.

All arithmetic in this module is exact: facet offsets are Fractions, fan
data is integral, and no floating point enters any validity decision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd

from . import _exact

LatticeVector = tuple[int, ...]


class PolytopeError(ValueError):
    """Invalid polytope input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Polytope:
    """Bounded intersection of half-spaces <x, v_j> >= lambda_j."""

    dim: int
    facets: tuple[tuple[LatticeVector, Fraction], ...]

    @property
    def normals(self) -> tuple[LatticeVector, ...]:
        return tuple(v for v, _ in self.facets)

    @property
    def offsets(self) -> tuple[Fraction, ...]:
        return tuple(lam for _, lam in self.facets)

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def ell(self, x) -> list:
        """Facet distance functionals <x, v_j> - lambda_j."""
        return [sum(xi * vi for xi, vi in zip(x, v)) - lam
                for v, lam in self.facets]

    @cached_property
    def vertex_facets(self) -> tuple[tuple[tuple[Fraction, ...],
                                           tuple[int, ...]], ...]:
        """Sorted vertices, each with its active facet indices; enumerated
        once per instance."""
        return _enumerate_vertices(self)

    def vertices(self) -> list[tuple[Fraction, ...]]:
        return [x for x, _ in self.vertex_facets]

    def contains_interior(self, x) -> bool:
        return all(l > 0 for l in self.ell(x))


@dataclass(frozen=True)
class Cone:
    generator_indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.generator_indices)


@dataclass(frozen=True)
class Fan:
    dim: int
    generators: tuple[LatticeVector, ...]
    cones_by_dim: dict[int, tuple[Cone, ...]] = field(hash=False)

    @property
    def max_cones(self) -> tuple[Cone, ...]:
        return self.cones_by_dim[self.dim]


@dataclass(frozen=True)
class KernelLattice:
    """Rows Q_a span the relation lattice of the ray generators."""

    basis: tuple[tuple[int, ...], ...]
    reduction_level: tuple[Fraction, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class PrimitiveCollection:
    indices: tuple[int, ...]


def _parse_rational(tok: str, line: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise PolytopeError(f"bad rational {tok!r}", line) from None


def parse_polytope(text: str) -> Polytope:
    """Parse the polytope file format.

    Line 1 is ``dim n``; each further non-comment line reads
    ``normal i1 ... in offset p/q``.
    """
    dim = None
    facets: list[tuple[LatticeVector, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if dim is None:
            if len(toks) != 2 or toks[0] != "dim":
                raise PolytopeError("expected 'dim n' header", lineno)
            try:
                dim = int(toks[1])
            except ValueError:
                raise PolytopeError(f"bad dimension {toks[1]!r}", lineno) from None
            if dim < 1:
                raise PolytopeError("dimension must be positive", lineno)
            continue
        if toks[0] != "normal" or "offset" not in toks:
            raise PolytopeError("expected 'normal i1 ... in offset p/q'", lineno)
        sep = toks.index("offset")
        if sep != dim + 1 or len(toks) != dim + 3:
            raise PolytopeError(
                f"expected {dim} normal components and one offset", lineno)
        try:
            normal = tuple(int(t) for t in toks[1:sep])
        except ValueError:
            raise PolytopeError("normal components must be integers", lineno) from None
        offset = _parse_rational(toks[sep + 1], lineno)
        g = 0
        for c in normal:
            g = gcd(g, c)
        if g == 0:
            raise PolytopeError("zero normal vector", lineno)
        if g != 1:
            raise PolytopeError(f"non-primitive normal {normal} (gcd={g})", lineno)
        if any(normal == v for v, _ in facets):
            raise PolytopeError(f"duplicate facet normal {normal}", lineno)
        facets.append((normal, offset))
    if dim is None:
        raise PolytopeError("missing 'dim n' header")
    if len(facets) < dim + 1:
        raise PolytopeError(f"need at least {dim + 1} facets, got {len(facets)}")
    p = Polytope(dim, tuple(facets))
    if _exact.rank(p.normals) < dim:
        raise PolytopeError("unbounded polytope (normals do not span)")
    verts = p.vertices()
    if not verts:
        raise PolytopeError("polytope has empty interior")
    centroid = [sum(v[i] for v in verts) / len(verts) for i in range(dim)]
    if not p.contains_interior(centroid):
        raise PolytopeError("polytope has empty interior")
    return p


def serialize_polytope(p: Polytope) -> str:
    lines = [f"dim {p.dim}"]
    for v, lam in p.facets:
        lines.append("normal " + " ".join(str(c) for c in v) + f" offset {lam}")
    return "\n".join(lines) + "\n"


def _enumerate_vertices(p: Polytope):
    # One pass over the n-subsets of facets. A subset whose normals form a
    # basis B and whose solution x satisfies every facet is a vertex. Each
    # column d of B^-1 points along an edge of the basis cone at x; when
    # <d, v_j> >= 0 for every facet, d is a nonzero recession direction.
    # Every edge at a vertex is such a column for some feasible basis, and
    # a nonempty pointed polyhedron is unbounded iff some vertex has an
    # unbounded edge, so this pass also decides boundedness.
    n, normals = p.dim, p.normals
    found = {}
    for subset in itertools.combinations(range(p.num_facets), n):
        rows = [normals[j] for j in subset]
        sol = _exact.solve(rows, [p.offsets[j] for j in subset])
        if not sol.unique:
            continue
        x = tuple(sol.particular)
        ell = p.ell(x)
        if any(l < 0 for l in ell):
            continue
        inv = _exact.inverse(rows)
        for c in range(n):
            if all(sum(inv[i][c] * v[i] for i in range(n)) >= 0
                   for v in normals):
                raise PolytopeError("unbounded polytope")
        found.setdefault(x, tuple(j for j, l in enumerate(ell) if l == 0))
    return tuple(sorted(found.items()))


def normal_fan(p: Polytope) -> Fan:
    """Fan whose k-cones are spanned by the normals active on codim-k faces."""
    touched = set()
    max_sets = []
    for x, act in p.vertex_facets:
        if len(act) != p.dim:
            raise FanError(
                f"polytope is not simple at vertex {x} (facets {act})")
        touched.update(act)
        max_sets.append(act)
    for j in range(p.num_facets):
        if j not in touched:
            raise FanError(f"degenerate polytope: facet {j} is never active")
    cones_by_dim: dict[int, set[tuple[int, ...]]] = {
        k: set() for k in range(1, p.dim + 1)}
    for act in max_sets:
        for k in range(1, p.dim + 1):
            for sub in itertools.combinations(act, k):
                cones_by_dim[k].add(sub)
    return Fan(
        dim=p.dim,
        generators=p.normals,
        cones_by_dim={
            k: tuple(Cone(s) for s in sorted(v))
            for k, v in cones_by_dim.items()
        },
    )


def is_smooth(f: Fan) -> bool:
    for cone in f.max_cones:
        d = _exact.det([f.generators[j] for j in cone.generator_indices])
        if d not in (1, -1):
            return False
    return True


def is_fano(f: Fan) -> bool:
    """Strict convexity of the support function that is 1 on every generator."""
    for cone in f.max_cones:
        rows = [f.generators[j] for j in cone.generator_indices]
        u = _exact.solve(rows, [1] * len(rows)).particular
        for k, v in enumerate(f.generators):
            if k in cone.generator_indices:
                continue
            if sum(ui * vi for ui, vi in zip(u, v)) >= 1:
                return False
    return True


def _cone_sets(f: Fan) -> set[frozenset]:
    sets = set()
    for cone in f.max_cones:
        gens = cone.generator_indices
        for k in range(1, len(gens) + 1):
            for sub in itertools.combinations(gens, k):
                sets.add(frozenset(sub))
    return sets


def primitive_collections(f: Fan) -> list[PrimitiveCollection]:
    spans = _cone_sets(f)
    n_gens = len(f.generators)
    out = []
    for size in range(2, n_gens + 1):
        for sub in itertools.combinations(range(n_gens), size):
            s = frozenset(sub)
            if s in spans:
                continue
            if all(s - {j} in spans for j in sub):
                out.append(PrimitiveCollection(sub))
    return sorted(out, key=lambda c: c.indices)


def kernel_lattice(f: Fan, p: Polytope) -> KernelLattice:
    vt = [[v[i] for v in f.generators] for i in range(f.dim)]
    basis = _exact.integer_kernel(vt)
    basis.sort(reverse=True)
    levels = tuple(
        -sum(q * lam for q, lam in zip(row, p.offsets)) for row in basis)
    return KernelLattice(tuple(tuple(r) for r in basis), levels)


def euler_characteristic(f: Fan) -> int:
    return len(f.max_cones)


def chart_exponents(f: Fan, sigma: Cone) -> list[list[int]]:
    """Exponent matrix E[j][a] = <v_j, u_a> for the dual basis of sigma."""
    if sigma.dim != f.dim:
        raise FanError("chart requires a maximal cone")
    gen_rows = [f.generators[j] for j in sigma.generator_indices]
    # dual basis vectors are the columns of the inverse of the generator matrix
    inv = _exact.inverse(gen_rows)
    duals = [[inv[i][a] for i in range(f.dim)] for a in range(f.dim)]
    exps = []
    for v in f.generators:
        exps.append([
            int(sum(vi * ui for vi, ui in zip(v, u))) for u in duals])
    return exps


def chart_coordinates(f: Fan, sigma: Cone, z) -> tuple[complex, ...]:
    """Affine chart coordinates of homogeneous coordinates z in cone sigma."""
    exps = chart_exponents(f, sigma)
    z = [complex(zj) for zj in z]
    inside = set(sigma.generator_indices)
    for j, zj in enumerate(z):
        if j not in inside and zj == 0:
            raise ValueError(f"homogeneous coordinate {j} must be nonzero "
                             f"outside the chart cone")
    out = []
    for a in range(f.dim):
        acc = complex(1.0)
        for j, zj in enumerate(z):
            e = exps[j][a]
            if e:
                acc *= zj ** e
        out.append(acc)
    return tuple(out)
