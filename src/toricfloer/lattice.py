"""Exact combinatorics of moment polytopes and their normal fans.

All arithmetic in this module is exact: facet offsets are Fractions, fan
data is integral, and no floating point enters any validity decision. A
basis inverse keeps its integral entries as ints, so the dual basis of a
unimodular cone is a matrix of machine integers.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import _exact

LatticeVector = tuple[int, ...]
Matrix = tuple[tuple[int | Fraction, ...], ...]


class PolytopeError(ValueError):
    """Invalid polytope input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FanError(ValueError):
    pass


def _over_one_denominator(xs) -> tuple[list[int], int]:
    """Integers k_i and the least d > 0 with x_i = k_i / d, for ints and
    Fractions x_i."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _centroid(points) -> list[Fraction]:
    """The mean of nonempty exact points, each coordinate one integer sum
    over one denominator."""
    out = []
    for coords in zip(*points):
        ks, d = _over_one_denominator(coords)
        out.append(Fraction(sum(ks), d * len(points)))
    return out


def _immutable(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Polytope(NamedTuple):
    dim: int
    facets: tuple[tuple[LatticeVector, Fraction], ...]


class Polytope(_Polytope):
    """Bounded intersection of half-spaces <x, v_j> >= lambda_j."""

    # no __slots__: the instance dict holds the cached properties
    __setattr__ = __delattr__ = _immutable

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
        """Facet distance functionals <x, v_j> - lambda_j: Fractions when
        every x_i is an int or a Fraction, else the plain sums."""
        if not all(isinstance(xi, (int, Fraction)) for xi in x):
            return [sum(xi * vi for xi, vi in zip(x, v)) - lam
                    for v, lam in self.facets]
        # x and the offsets over one denominator d: each ell_j is one
        # integer sum over the nonzero entries of v_j, divided once by d
        xs, dx = _over_one_denominator(x)
        lams, dl = self._offsets_over_one_denominator
        d = lcm(dx, dl)
        sx, sl = d // dx, d // dl
        xs = [k * sx for k in xs]
        return [Fraction(sum(xs[i] * c for i, c in v) - lam * sl, d)
                for v, lam in zip(self._sparse_normals, lams)]

    @cached_property
    def _sparse_normals(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each normal's nonzero entries as (index, entry) pairs."""
        return tuple(tuple((i, c) for i, c in enumerate(v) if c)
                     for v in self.normals)

    @cached_property
    def _offsets_over_one_denominator(self) -> tuple[list[int], int]:
        return _over_one_denominator(self.offsets)

    @cached_property
    def vertex_facets(self) -> tuple[tuple[tuple[Fraction, ...],
                                           tuple[int, ...], Matrix], ...]:
        """Sorted vertices, each with its active facet indices and the
        inverse of its lexicographically least feasible basis (the active
        set at a simple vertex), whose integral entries are ints;
        enumerated once per instance."""
        return _enumerate_vertices(self)

    def vertices(self) -> list[tuple[Fraction, ...]]:
        return [x for x, _, _ in self.vertex_facets]

    @cached_property
    def fan(self) -> Fan:
        """The normal fan, built once per instance."""
        return normal_fan(self)

    @cached_property
    def centroid(self) -> tuple[Fraction, ...]:
        """The exact mean of the vertices."""
        return tuple(_centroid(self.vertices()))

    @cached_property
    def kushnirenko_count(self) -> int:
        """kushnirenko_count of the facet normals, computed once per
        instance."""
        return kushnirenko_count(self.dim, self.normals)

    def contains_interior(self, x) -> bool:
        return all(l > 0 for l in self.ell(x))


class Cone(NamedTuple):
    generator_indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.generator_indices)


class _Fan(NamedTuple):
    dim: int
    generators: tuple[LatticeVector, ...]
    cones_by_dim: dict[int, tuple[Cone, ...]]
    duals: dict[tuple[int, ...], Matrix]


class Fan(_Fan):
    """``duals`` maps each maximal cone's generator indices to the inverse
    of its generator matrix, whose columns are the dual basis; integral
    entries are ints, the others Fractions."""

    # no __slots__: the instance dict holds the cached smooth and fano
    __setattr__ = __delattr__ = _immutable

    def __hash__(self):
        # the dicts are compared but not hashed
        return hash((self.dim, self.generators))

    @property
    def max_cones(self) -> tuple[Cone, ...]:
        return self.cones_by_dim[self.dim]

    @cached_property
    def smooth(self) -> bool:
        """Every maximal cone is unimodular: an integer matrix has det +-1
        exactly when its inverse is integral."""
        return all(x.denominator == 1
                   for inv in self.duals.values() for row in inv for x in row)

    @cached_property
    def fano(self) -> bool:
        """Strict convexity of the support function that is 1 on every
        generator. On a smooth fan the duals are int matrices, so this
        runs on machine integers."""
        # generators are sparse on products: keep each one's nonzero entries
        sparse = [[(i, c) for i, c in enumerate(v) if c]
                  for v in self.generators]
        for gens, inv in self.duals.items():
            # u with <v_j, u> = 1 on the cone's generators is B^-1 (1, ..., 1)
            u = [sum(row) for row in inv]
            for k, v in enumerate(sparse):
                if k in gens:
                    continue
                if sum(u[i] * c for i, c in v) >= 1:
                    return False
        return True


class KernelLattice(NamedTuple):
    """Rows Q_a span the relation lattice of the ray generators."""

    basis: tuple[tuple[int, ...], ...]
    reduction_level: tuple[Fraction, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


class PrimitiveCollection(NamedTuple):
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
    if not p.vertex_facets:
        # the walk finds no basis when P is empty or its normals do not span
        if _exact.rank(p.normals) < dim:
            raise PolytopeError("unbounded polytope (normals do not span)")
        raise PolytopeError("polytope has empty interior")
    if not p.contains_interior(p.centroid):
        raise PolytopeError("polytope has empty interior")
    return p


def serialize_polytope(p: Polytope) -> str:
    lines = [f"dim {p.dim}"]
    for v, lam in p.facets:
        lines.append("normal " + " ".join(str(c) for c in v) + f" offset {lam}")
    return "\n".join(lines) + "\n"


def _step(m, ext, det, r: int, c: int):
    """Exchange column c of a basis for the constraint in row r of ``m``.

    ``m`` stacks B^-1 (one row per coordinate) over the tableau rows
    <u_k, d_c> of the constraints u_k, ``ext`` stacks the basic point
    over the slacks <u_k, x> - lambda_k, and ``det`` is det B, with row c
    of B the normal of the facet in column c. The point moves along d_c
    until that constraint is tight; all three are updated exactly. The
    new det is det B times the pivot m[r][c] = <u_r, d_c> that
    ``_exact.pivot`` divides by: B' = B + e_c (u_r - b_c), so by the matrix
    determinant lemma det B' = det B (1 + <u_r - b_c, d_c>), and
    <b_c, d_c> = 1.
    """
    a = m[r]
    t = -ext[r] / a[c]
    if t:
        ext = [e + t * row[c] if row[c] else e for e, row in zip(ext, m)]
    return _exact.pivot(m, c, a), ext, det * a[c]


def _lex_negative(row, e, basis, j: int) -> bool:
    """Whether facet j's slack, of value e and tableau row ``row``, is
    negative under the offsets lambda_k - eps^(N-k), where the greatest
    facet index is the most significant. Its eps-terms are +1 at j and
    -row[c] at basis[c]; when e is 0, the term at the greatest of those
    indices gives the sign."""
    if e:
        return e < 0
    lead = max((c for c, a in enumerate(row) if a), key=basis.__getitem__)
    return basis[lead] > j and row[lead] > 0


def _least(ratios) -> list:
    """The keys of the least ratios among (key, num, den) with den > 0, in
    their order, compared by cross-multiplying: no Fraction is built."""
    least, bn, bd = [], 0, 0
    for j, a, b in ratios:
        d = a * bd - bn * b
        if d < 0 or not least:
            least, bn, bd = [j], a, b
        elif d == 0:
            least.append(j)
    return least


def _feasible_basis(p: Polytope):
    """A lexicographically feasible basis of P as (facets by column, m,
    ext, det) in the layout of ``_step``, or None when P is empty or its
    normals do not span.

    The first n independent facets are pivoted in from the coordinate
    frame, where B is the identity and det B = 1. Then, while some facet is
    violated, the violated facet r of least index replaces the basis facet
    of least index whose column has a positive entry in row r; the point
    moves along that column until r is tight. A facet is violated when its
    slack is negative under the offsets lambda_k - eps^(N-k) of
    ``_feasible_bases``: the slack is negative, or it is 0 and its leading
    eps-term is negative. This is the dual simplex
    with a zero objective, that is, the primal simplex on max <lambda, y>
    over y >= 0 with sum y_j v_j = 0, here over the rationals in eps
    ordered lexicographically, with both choices by least index: Bland's
    rule ("New finite pivoting rules for the simplex method", 1977), which
    never cycles, so the loop ends. Both choices must stay least-index; Bland's
    proof does not cover a most-violated-first choice. If row r has no
    positive entry, every point with the basis facets >= 0 is
    x + sum t_c d_c with t >= 0, where l_r <= l_r(x) < 0, so the perturbed
    polyhedron P_eps is empty; P lies in P_eps, so P is empty too.
    """
    n, nf = p.dim, p.num_facets
    m = _exact.frac_matrix([[int(i == k) for k in range(n)] for i in range(n)]
                           + [list(v) for v in p.normals])
    ext = [Fraction(0)] * n + [-lam for lam in p.offsets]
    det = Fraction(1)
    basis: list = [None] * n
    for j in range(nf):
        c = next((c for c in range(n)
                  if basis[c] is None and m[n + j][c] != 0), None)
        if c is not None:
            m, ext, det = _step(m, ext, det, n + j, c)
            basis[c] = j
    if None in basis:
        return None
    while True:
        r = next((j for j in range(nf)
                  if _lex_negative(m[n + j], ext[n + j], basis, j)), None)
        if r is None:
            return basis, m, ext, det
        cols = [c for c in range(n) if m[n + r][c] > 0]
        if not cols:
            return None
        c = min(cols, key=basis.__getitem__)
        m, ext, det = _step(m, ext, det, n + r, c)
        basis[c] = r


def _feasible_bases(p: Polytope):
    """Yield one feasible basis per vertex of the perturbed polyhedron, as
    (facets by column, m, ext, det) in the layout of ``_step``, with det B
    read off the pivots that led to the basis; raise PolytopeError when P
    is unbounded."""
    # A walk from one phase-1 basis (Avis-Fukuda, "A pivoting algorithm for
    # convex hulls and vertex enumeration of arrangements and polyhedra",
    # 1992) under the offsets lambda_j - eps^(N-j) (Dantzig-Orden-Wolfe,
    # 1955). The perturbed polyhedron is simple, so each basis feasible
    # under them is one of its vertices, and column d_c of B^-1 points along
    # the edge that leaves facet basis[c]. The facet that blocks d_c first
    # is unique: among the facets tied at the least ratio, compare the
    # eps-terms of their ratios, greatest index first. Facet j's ratio has
    # 1/-col[j] at j, m[n + j][k]/col[j] at basis[k] and 0 elsewhere. The
    # edges join every perturbed vertex, so the walk yields each once, and
    # each vertex of P as at least one of them. Among those is the basis B*
    # of least facet indices that ``_enumerate_vertices`` keeps: an active
    # facet k left out of B* depends on the facets of B* below k, so its
    # tableau row is 0 at every basis facet above k, its own term leads,
    # and its slack is positive. When no facet blocks d_c, d_c is a nonzero
    # recession direction; a nonempty pointed polyhedron is unbounded iff
    # some vertex has such an edge, so the walk also decides boundedness.
    start = _feasible_basis(p)
    if start is None:
        return
    n = p.dim
    seen = {frozenset(start[0])}
    stack = [start]
    while stack:
        basis, m, ext, det = stack.pop()
        yield basis, m, ext, det
        # each slack as numerator u over denominator w > 0
        ell = [(e.numerator, e.denominator) for e in ext[n:]]
        for c in range(n):
            col = [row[c] for row in m[n:]]
            # for a = s/t < 0 the ratio (u/w) / -a is (u t) / (w (-s))
            tied = _least([(j, u * a.denominator, -a.numerator * w)
                           for j, ((u, w), a) in enumerate(zip(ell, col))
                           if a.numerator < 0])
            if not tied:
                raise PolytopeError("unbounded polytope")
            if len(tied) > 1:
                for pos in sorted({*basis, *tied}, reverse=True):
                    if pos in tied:
                        # only pos has a term there, and it is positive
                        tied.remove(pos)
                    elif pos in basis:
                        k = basis.index(pos)
                        # the term x/a = (u/w)/(s/t) is (-u t) / (w (-s))
                        terms = []
                        for j in tied:
                            x, a = m[n + j][k], col[j]
                            terms.append((j, -x.numerator * a.denominator,
                                          -a.numerator * x.denominator))
                        tied = _least(terms)
                    if len(tied) == 1:
                        break
            (j,) = tied
            nxt = basis.copy()
            nxt[c] = j
            facets = frozenset(nxt)
            if facets not in seen:
                seen.add(facets)
                stack.append((nxt, *_step(m, ext, det, n + j, c)))


def _enumerate_vertices(p: Polytope):
    # each vertex keeps the inverse of its lexicographically least basis,
    # with its integral entries narrowed to int
    n = p.dim
    found = {}
    for basis, m, ext, _ in _feasible_bases(p):
        x = tuple(ext[:n])
        key = tuple(sorted(basis))
        if x not in found or key < found[x][0]:
            order = sorted(range(n), key=basis.__getitem__)
            found[x] = (key, tuple(j for j, l in enumerate(ext[n:]) if l == 0),
                        tuple(tuple(row[c] for c in order) for row in m[:n]))
    return tuple((x, act, tuple(tuple(a.numerator if a.denominator == 1
                                      else a for a in row) for row in inv))
                 for x, (_, act, inv) in sorted(found.items()))


def normal_fan(p: Polytope) -> Fan:
    """Fan whose k-cones are spanned by the normals active on codim-k faces."""
    touched = set()
    duals = {}
    for x, act, inv in p.vertex_facets:
        if len(act) != p.dim:
            raise FanError(
                f"polytope is not simple at vertex {x} (facets {act})")
        touched.update(act)
        duals[act] = inv
    for j in range(p.num_facets):
        if j not in touched:
            raise FanError(f"degenerate polytope: facet {j} is never active")
    cones_by_dim: dict[int, set[tuple[int, ...]]] = {
        k: set() for k in range(1, p.dim + 1)}
    for act in duals:
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
        duals=duals,
    )


def is_smooth(f: Fan) -> bool:
    return f.smooth


def is_fano(f: Fan) -> bool:
    return f.fano


def primitive_collections(f: Fan) -> list[PrimitiveCollection]:
    """The non-cones all of whose proper subsets are cones. Such a set
    minus its largest generator is a cone, so the candidates are a cone F
    plus one generator j > max F; cones are bitmasks of their generators."""
    cones = {sum(1 << j for j in c.generator_indices): c.generator_indices
             for cs in f.cones_by_dim.values() for c in cs}
    out = []
    for mask, sub in cones.items():
        for j in range(mask.bit_length(), len(f.generators)):
            s = mask | 1 << j
            if s not in cones and all(s ^ 1 << i in cones for i in sub):
                out.append(PrimitiveCollection(sub + (j,)))
    return sorted(out, key=lambda c: c.indices)


def kernel_lattice(p: Polytope) -> KernelLattice:
    vt = [[v[i] for v in p.normals] for i in range(p.dim)]
    basis = _exact.integer_kernel(vt)
    basis.sort(reverse=True)
    levels = tuple(
        -sum(q * lam for q, lam in zip(row, p.offsets)) for row in basis)
    return KernelLattice(tuple(tuple(r) for r in basis), levels)


def euler_characteristic(f: Fan) -> int:
    return len(f.max_cones)


def kushnirenko_count(dim: int, generators) -> int:
    """n! Vol(conv{v_j}) over integer vectors v_j that positively span
    Z^dim (a complete fan's generators, a polytope's facet normals),
    exactly.

    By Kushnirenko ("Polyedres de Newton et nombres de Milnor", 1976) this
    bounds the isolated critical points of the mirror superpotential in the
    torus, counted with multiplicity, and generic coefficients attain it.
    0 is interior to conv{v_j}, so each facet F spans a pyramid over it
    with apex 0 and the pyramids tile the polytope. The facets are the
    vertices of the polar {u : <v_j, u> >= -1}, with the generators on F
    as active facets. The walk yields one basis per vertex of the perturbed
    polar, and those bases are the simplices of a triangulation of the
    boundary of conv{v_j} (De Loera-Rambau-Santos, "Triangulations", 2010).
    Each adds its |det| >= 1, the product of the pivots the walk made to
    reach it, as lrs computes volumes (Avis 2000); so the walk visits at
    most the count. For a smooth Fano fan every F is a unimodular simplex,
    one per maximal cone, and the count is chi.
    """
    polar = Polytope(dim, tuple((v, Fraction(-1)) for v in generators))
    return sum(abs(int(det)) for *_, det in _feasible_bases(polar))


def chart_exponents(f: Fan, sigma: Cone) -> list[list[int]]:
    """Exponent matrix E[j][a] = <v_j, u_a> for the dual basis of sigma."""
    inv = f.duals.get(sigma.generator_indices)
    if inv is None:
        raise FanError("chart requires a maximal cone")
    # dual basis vectors are the columns of the inverse of the generator matrix
    duals = [[inv[i][a] for i in range(f.dim)] for a in range(f.dim)]
    exps = [[sum(vi * ui for vi, ui in zip(v, u)) for u in duals]
            for v in f.generators]
    if any(e.denominator != 1 for row in exps for e in row):
        raise FanError(f"chart exponents of cone {sigma.generator_indices} "
                       f"are not integral: the cone is not unimodular")
    return [[int(e) for e in row] for row in exps]


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
