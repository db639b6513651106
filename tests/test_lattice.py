import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest
from hypothesis import (HealthCheck, assume, event, example, given, reject,
                        settings)
from hypothesis import strategies as st

from toricfloer import _exact, lattice
from toricfloer.lattice import (Cone, Fan, FanError, KernelLattice,
                                Polytope, PolytopeError, PrimitiveCollection,
                                chart_coordinates, chart_exponents,
                                euler_characteristic, is_fano, is_smooth,
                                kernel_lattice, kushnirenko_count,
                                normal_fan, parse_polytope,
                                primitive_collections, serialize_polytope)

from conftest import (CORPUS, DATA, assert_record, corpus_polytope,
                      corpus_text)

P2 = "dim 2\nnormal 1 0 offset 0\nnormal 0 1 offset 0\nnormal -1 -1 offset -9\n"


class TestParse:
    def test_p2(self):
        p = parse_polytope(P2)
        assert p.dim == 2 and p.num_facets == 3
        assert p.offsets == (Fraction(0), Fraction(0), Fraction(-9))

    def test_comments_and_blank_lines(self):
        p = parse_polytope("# c\n\n" + P2 + "# trailing\n")
        assert p.num_facets == 3

    def test_rational_offset(self):
        p = parse_polytope(
            "dim 1\nnormal 1 offset -1/3\nnormal -1 offset -5/2\n")
        assert p.offsets == (Fraction(-1, 3), Fraction(-5, 2))

    def test_non_primitive_normal(self):
        with pytest.raises(PolytopeError, match="non-primitive") as e:
            parse_polytope("dim 2\nnormal 2 0 offset 0\n"
                           "normal 0 1 offset 0\nnormal -1 -1 offset -1\n")
        assert e.value.line == 2

    def test_unbounded(self):
        with pytest.raises(PolytopeError, match="unbounded"):
            parse_polytope("dim 2\nnormal 1 0 offset 0\n"
                           "normal 0 1 offset 0\nnormal -1 1 offset -3\n")

    def test_half_space_only_rejected(self):
        # a single half-space has too few facets and is unbounded
        with pytest.raises(PolytopeError):
            parse_polytope("dim 1\nnormal 1 offset 0\n")

    def test_unbounded_2d(self):
        with pytest.raises(PolytopeError, match="unbounded"):
            parse_polytope("dim 2\nnormal 1 0 offset 0\n"
                           "normal 0 1 offset 0\nnormal 1 1 offset 0\n")

    def test_empty_interior(self):
        with pytest.raises(PolytopeError, match="empty interior"):
            parse_polytope("dim 1\nnormal 1 offset 1\nnormal -1 offset -1\n")

    def test_empty_with_recession_direction(self):
        # x >= 1, x <= 0, y >= 0: empty, though (0, 1) recedes
        with pytest.raises(PolytopeError, match="empty interior"):
            parse_polytope("dim 2\nnormal 1 0 offset 1\n"
                           "normal -1 0 offset 0\nnormal 0 1 offset 0\n")

    def test_duplicate_normal(self):
        with pytest.raises(PolytopeError, match="duplicate") as e:
            parse_polytope("dim 1\nnormal 1 offset 0\nnormal 1 offset -1\n"
                           "normal -1 offset -2\n")
        assert e.value.line == 3

    def test_bad_header(self):
        with pytest.raises(PolytopeError, match="dim") as e:
            parse_polytope("normal 1 offset 0\n")
        assert e.value.line == 1

    def test_bad_rational(self):
        with pytest.raises(PolytopeError, match="bad rational") as e:
            parse_polytope("dim 1\nnormal 1 offset x\nnormal -1 offset -2\n")
        assert e.value.line == 2

    def test_wrong_arity(self):
        with pytest.raises(PolytopeError, match="normal components"):
            parse_polytope("dim 2\nnormal 1 offset 0\n")

    @pytest.mark.parametrize("name", CORPUS)
    def test_round_trip_bit_exact(self, name):
        text = corpus_text(name)
        p = parse_polytope(text)
        s = serialize_polytope(p)
        assert parse_polytope(s) == p
        assert serialize_polytope(parse_polytope(s)) == s


class TestFan:
    def test_p2_cones(self, corpus):
        f = normal_fan(corpus["p2"])
        assert len(f.max_cones) == 3
        assert {c.generator_indices for c in f.max_cones} == {
            (0, 1), (0, 2), (1, 2)}

    def test_square_chi(self, corpus):
        assert euler_characteristic(normal_fan(corpus["p1xp1"])) == 4

    def test_f1_max_cones(self, corpus):
        assert len(normal_fan(corpus["f1"]).max_cones) == 4

    def test_redundant_facet_2d(self):
        text = ("dim 2\nnormal 1 0 offset 0\nnormal 0 1 offset 0\n"
                "normal -1 0 offset -2\nnormal 0 -1 offset -2\n"
                "normal -1 -1 offset -10\n")
        with pytest.raises(FanError, match="facet 4"):
            normal_fan(parse_polytope(text))


class TestRecords:
    @pytest.mark.parametrize("make, field", [
        (lambda: parse_polytope(P2), "facets"),
        (lambda: Cone((0, 1)), "generator_indices"),
        (lambda: normal_fan(parse_polytope(P2)), "cones_by_dim"),
        (lambda: KernelLattice(((1, 1, 1),), (Fraction(9),)), "basis"),
        (lambda: PrimitiveCollection((0, 1, 2)), "indices"),
    ], ids=["Polytope", "Cone", "Fan", "KernelLattice",
            "PrimitiveCollection"])
    def test_value_semantics(self, make, field):
        assert_record(make, field)

    def test_fan_hash_leaves_out_its_dicts(self):
        f = normal_fan(parse_polytope(P2))
        bare = Fan(f.dim, f.generators, {}, {})
        assert hash(bare) == hash(f) == hash((f.dim, f.generators))
        # the dicts are still compared
        assert bare != f
        assert Fan(*f) == f

    def test_vertex_pass_cached_per_instance(self, monkeypatch):
        p, q = parse_polytope(P2), parse_polytope(P2)
        calls = []
        enumerate_vertices = lattice._enumerate_vertices
        monkeypatch.setattr(lattice, "_enumerate_vertices",
                            lambda p: calls.append(p) or enumerate_vertices(p))
        p = Polytope(*p)
        for _ in range(2):
            assert p.vertices() == q.vertices()
            normal_fan(p)
        assert len(calls) == 1
        # the cache is neither compared nor hashed
        assert p == q and hash(p) == hash(q)
        f = normal_fan(q)
        assert f.smooth and f.fano
        assert {"smooth", "fano"} <= vars(f).keys()


def test_never_active_facet_is_the_right_error(corpus):
    # sanity: the fixture polytopes all produce fans without error
    for p in corpus.values():
        normal_fan(p)


class TestFlags:
    def test_smooth_fano_table(self, corpus):
        expect = {"p1": (True, True), "p2": (True, True),
                  "p3": (True, True), "p1xp1": (True, True),
                  "f1": (True, True), "f2": (True, False),
                  "f3": (True, False)}
        for name, (sm, fano) in expect.items():
            f = normal_fan(corpus[name])
            assert is_smooth(f) is sm, name
            assert is_fano(f) is fano, name

    def test_non_smooth(self):
        p = parse_polytope("dim 2\nnormal 1 0 offset 0\n"
                           "normal 0 1 offset 0\nnormal -1 -2 offset -4\n")
        f = normal_fan(p)
        assert not is_smooth(f)
        # integral entries are narrowed to int, the others stay Fractions
        entries = [x for inv in f.duals.values() for row in inv for x in row]
        assert any(type(x) is Fraction for x in entries)
        for x in entries:
            assert type(x) is (int if x.denominator == 1 else Fraction)

    @pytest.mark.parametrize("name", CORPUS + ("p2x4",))
    def test_smooth_duals_are_ints(self, name):
        # the Fano test then runs on machine integers
        p = (parse_polytope((DATA / "p2x4.poly").read_text())
             if name == "p2x4" else corpus_polytope(name))
        f = normal_fan(p)
        assert is_smooth(f)
        assert all(type(x) is int for inv in f.duals.values()
                   for row in inv for x in row)


class TestCombinatorics:
    def test_primitive_collections_p2(self, corpus):
        pcs = primitive_collections(normal_fan(corpus["p2"]))
        assert [c.indices for c in pcs] == [(0, 1, 2)]

    def test_primitive_collections_p1xp1(self, corpus):
        pcs = primitive_collections(normal_fan(corpus["p1xp1"]))
        assert [c.indices for c in pcs] == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("name", CORPUS)
    def test_kernel_annihilates_generators(self, name):
        p = corpus_polytope(name)
        k = kernel_lattice(p)
        assert k.rank == p.num_facets - p.dim
        for row in k.basis:
            for i in range(p.dim):
                assert sum(q * v[i] for q, v in zip(row, p.normals)) == 0
        for row, r in zip(k.basis, k.reduction_level):
            assert r == -sum(q * lam for q, lam in zip(row, p.offsets))

    def test_kernel_saturated(self, corpus):
        # the quotient Z^N / (row span + image of V^T) must be torsion-free;
        # equivalently the stacked (Q | basis completion) has unit invariant
        # factors. Check via the rank-1 case on p2: (1,1,1) not (2,2,2).
        k = kernel_lattice(corpus["p2"])
        assert k.basis == ((1, 1, 1),)

    def test_chart_coordinates_p2(self, corpus):
        f = normal_fan(corpus["p2"])
        sigma = Cone((0, 1))
        exps = chart_exponents(f, sigma)
        assert exps[0] == [1, 0] and exps[1] == [0, 1]
        assert exps[2] == [-1, -1]
        z = (2 + 0j, 3 + 0j, 1 + 1j)
        x = chart_coordinates(f, sigma, z)
        assert x[0] == pytest.approx(2 / (1 + 1j))
        assert x[1] == pytest.approx(3 / (1 + 1j))

    def test_chart_requires_max_cone(self, corpus):
        f = normal_fan(corpus["p2"])
        with pytest.raises(FanError):
            chart_exponents(f, Cone((0,)))
        # a maximal cone is named by its sorted generator indices
        with pytest.raises(FanError, match="maximal cone"):
            chart_exponents(f, Cone((1, 0)))
        # facets 0 and 1 of P^1 x P^1 are +-e_1: two indices, but no cone
        with pytest.raises(FanError, match="maximal cone"):
            chart_exponents(normal_fan(corpus["p1xp1"]), Cone((0, 1)))

    def test_chart_requires_unimodular_cone(self):
        # cone (0, 2) has det -2: its dual basis is (1, -1/2), (0, -1/2), so
        # generator 1 would get exponents (-1/2, -1/2)
        f = normal_fan(parse_polytope(
            "dim 2\nnormal 1 0 offset 0\nnormal 0 1 offset 0\n"
            "normal -1 -2 offset -4\n"))
        with pytest.raises(FanError, match=r"cone \(0, 2\) .* not unimodular"):
            chart_exponents(f, Cone((0, 2)))
        with pytest.raises(FanError, match="not unimodular"):
            chart_coordinates(f, Cone((0, 2)), (1, 1, 1))
        assert chart_exponents(f, Cone((0, 1))) == [[1, 0], [0, 1], [-1, -2]]

    def test_chart_zero_outside_cone(self, corpus):
        f = normal_fan(corpus["p2"])
        with pytest.raises(ValueError, match="nonzero"):
            chart_coordinates(f, Cone((0, 1)), (1, 1, 0))


class TestExact:
    def test_solve_unique(self):
        sol = _exact.solve([[2, 1], [1, 1]], [3, 2])
        assert sol.unique and sol.particular == [Fraction(1), Fraction(1)]

    def test_solve_inconsistent_tracks_violations(self):
        sol = _exact.solve([[1, 1], [1, 1]], [1, 2])
        assert not sol.consistent
        assert list(sol.violations.values()) == [Fraction(1)]

    def test_det_and_inverse(self):
        inv = _exact.inverse([[2, 1], [1, 1]])
        assert inv == [[Fraction(1), Fraction(-1)],
                       [Fraction(-1), Fraction(2)]]

    def test_integer_kernel_saturation(self):
        # kernel of (2 4) over Z is generated by (2, -1), not (4, -2)
        ker = _exact.integer_kernel([[2, 4]])
        assert ker == [[2, -1]]


def _leibniz(m) -> Fraction:
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction((-1) ** sum(perm[i] > perm[j]
                                    for i, j in combinations(range(n), 2)))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _minor_rank(m) -> int:
    """Size of the largest nonzero minor."""
    ncols = len(m[0]) if m else 0
    for k in range(min(len(m), ncols), 0, -1):
        for rows in combinations(m, k):
            for cols in combinations(range(ncols), k):
                if _leibniz([[row[c] for c in cols] for row in rows]) != 0:
                    return k
    return 0


# small integer entries make zero pivots (row swaps) and singular matrices
# common; halves and thirds exercise the rationals
_entries = st.builds(Fraction, st.integers(-2, 2),
                     st.sampled_from((1, 1, 2, 3)))


@st.composite
def _matrix(draw, square: bool):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    return draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@settings(max_examples=200, deadline=None)
@given(_matrix(square=True))
def test_det_rank_inverse_match_brute_force(m):
    n = len(m)
    d = _leibniz(m)
    assert _exact.rank(m) == _minor_rank(m)
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            _exact.inverse(m)
        return
    inv = _exact.inverse(m)
    assert [[sum(inv[i][k] * m[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)]
                                   for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(_matrix(square=False), st.data())
def test_solve_matches_brute_force(a, data):
    b = data.draw(st.lists(_entries, min_size=len(a), max_size=len(a)))
    ncols = len(a[0])
    sol = _exact.solve(a, b)
    x = sol.particular
    resid = [bi - sum(v * xv for v, xv in zip(row, x))
             for row, bi in zip(a, b)]
    assert sol.violations == {i: r for i, r in enumerate(resid) if r != 0}
    # consistent exactly when b adds no rank; then x solves every row
    augmented = [row + [bi] for row, bi in zip(a, b)]
    assert sol.consistent == (_minor_rank(augmented) == _minor_rank(a))
    # a column is a pivot exactly when it raises the rank of those before it
    pivot = [_minor_rank([row[:c + 1] for row in a])
             > _minor_rank([row[:c] for row in a]) for c in range(ncols)]
    assert sol.free == [c for c in range(ncols) if not pivot[c]]
    assert all(x[c] == 0 for c in sol.free)


@settings(max_examples=200, deadline=None)
@given(_matrix(square=True), st.data())
def test_pivot_matches_inverse_of_updated_matrix(b, data):
    n = len(b)
    assume(_leibniz(b) != 0)
    c = data.draw(st.integers(0, n - 1))
    w = data.draw(st.lists(_entries, min_size=n, max_size=n))
    carried = data.draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                                 max_size=3))
    inv = _exact.inverse(b)
    a = [sum(w[i] * inv[i][k] for i in range(n)) for k in range(n)]
    updated = b[:c] + [w] + b[c + 1:]
    if a[c] == 0:
        # w lies in the span of the other rows
        assert _leibniz(updated) == 0
        return
    new_inv = _exact.inverse(updated)
    rows = inv + [[sum(r[i] * inv[i][k] for i in range(n)) for k in range(n)]
                  for r in carried]
    assert _exact.pivot(rows, c, a) == new_inv + [
        [sum(r[i] * new_inv[i][k] for i in range(n)) for k in range(n)]
        for r in carried]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_translation_equivariance(shift):
    # translating the polytope translates vertices and preserves the fan
    p = corpus_polytope("f1")
    moved = parse_polytope(
        "dim 2\n" + "".join(
            "normal %d %d offset %s\n"
            % (v[0], v[1], lam + v[0] * shift[0] + v[1] * shift[1])
            for v, lam in p.facets))
    assert normal_fan(moved).generators == normal_fan(p).generators
    vs = {tuple(c + s for c, s in zip(vert, shift)) for vert in p.vertices()}
    assert vs == set(moved.vertices())


def _feasible(rows, strict: bool) -> bool:
    """Fourier-Motzkin: is {x : a.x > b for all (a, b) in rows} nonempty
    (a.x >= b when not strict)?"""
    for k in range(len(rows[0][0])):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        rows = [r for r in rows if r[0][k] == 0] + [
            ([-aq[k] * x + ap[k] * y for x, y in zip(ap, aq)],
             -aq[k] * bp + ap[k] * bq)
            for ap, bp in pos for aq, bq in neg]
    return all(b < 0 if strict else b <= 0 for _, b in rows)


def _recedes(normals, dim: int) -> bool:
    """A nonzero d with <d, v_j> >= 0 for all j: a pointed cone that is not
    {0} has an extreme ray, the kernel of dim - 1 of the normals."""
    for sub in combinations(normals, dim - 1):
        ker = _exact.integer_kernel(sub) if sub else [[1]]
        if len(ker) != 1:
            continue
        for d in (ker[0], [-x for x in ker[0]]):
            if all(sum(a * b for a, b in zip(d, v)) >= 0 for v in normals):
                return True
    return False


@st.composite
def _random_input(draw):
    dim = draw(st.integers(1, 3))
    vecs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim,
                                  max_size=dim),
                         min_size=dim + 1, max_size=dim + 4))
    normals = []
    for v in vecs:
        g = gcd(*v)
        if g and tuple(c // g for c in v) not in normals:
            normals.append(tuple(c // g for c in v))
    offsets = [Fraction(draw(st.integers(-6, 2)),
                        draw(st.sampled_from((1, 2, 3, 4, 6))))
               for _ in normals]
    return dim, normals, offsets


def _input_text(dim, normals, offsets) -> str:
    return f"dim {dim}\n" + "".join(
        "normal " + " ".join(map(str, v)) + f" offset {lam}\n"
        for v, lam in zip(normals, offsets))


@settings(max_examples=300, deadline=None)
@given(_random_input())
def test_parse_accepts_exactly_nonempty_bounded(data):
    dim, normals, offsets = data
    assume(len(normals) >= dim + 1)
    text = _input_text(dim, normals, offsets)
    rows = [(list(v), lam) for v, lam in zip(normals, offsets)]
    if _exact.rank(normals) < dim:
        expect = "normals do not span"
    elif _feasible(rows, strict=False) and _recedes(normals, dim):
        expect = "unbounded polytope"
    elif not _feasible(rows, strict=True):
        expect = "empty interior"
    else:
        p = parse_polytope(text)
        assert all(all(l >= 0 for l in p.ell(x)) for x in p.vertices())
        return
    with pytest.raises(PolytopeError, match=expect):
        parse_polytope(text)


def _vertex_facets_by_bases(p):
    """The vertex pass the pivot walk replaced, kept as its reference: solve
    every n-subset of facets, keep the feasible solutions with the inverse
    of the first basis in lexicographic order, and call the polytope
    unbounded when a feasible basis has a column d with <d, v_j> >= 0 for
    every facet."""
    n, normals = p.dim, p.normals
    found = {}
    for subset in combinations(range(p.num_facets), n):
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
        found.setdefault(x, (tuple(j for j, l in enumerate(ell) if l == 0),
                             tuple(map(tuple, inv))))
    return tuple((x, act, inv) for x, (act, inv) in sorted(found.items()))


def _outcome(enumerate_vertices, p):
    try:
        return enumerate_vertices(p)
    except PolytopeError as e:
        return str(e)


_PYRAMID = (3, [(0, 0, 1), (-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1)],
            [0, -1, -1, -1, -1])
_OCTAHEDRON = (3, [(a, b, c) for a in (1, -1) for b in (1, -1)
                   for c in (1, -1)], [-1] * 8)


@settings(max_examples=300, deadline=None)
@given(_random_input())
# square pyramid: the apex lies on 4 facets
@example(_PYRAMID)
# octahedron: every vertex lies on 4 facets
@example(_OCTAHEDRON)
# unbounded: x >= 0, y >= 0, x + y >= 1
@example((2, [(1, 0), (0, 1), (1, 1)], [0, 0, 1]))
# empty: x >= 0, y >= 0, x + y <= -1
@example((2, [(1, 0), (0, 1), (-1, -1)], [0, 0, 1]))
# the segment x >= 0, y >= 0, x + y = 1: nonempty, lower-dimensional, and
# the frame (0, 0) is infeasible
@example((2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [0, 0, -1, 1]))
# x + y >= 2, x + 2y >= 3 and 2x + y >= 3 meet at (1, 1), and the frame
# (0, 0) is infeasible
@example((2, [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (-1, -1)],
          [0, 0, 2, 3, 3, -4]))
def test_walk_matches_basis_pass(data):
    dim, normals, offsets = data
    p = Polytope(dim, tuple(zip(normals, map(Fraction, offsets))))
    assert (_outcome(lattice._enumerate_vertices, p)
            == _outcome(_vertex_facets_by_bases, p))


@st.composite
def _input_through_point(draw):
    """A random input with some facets moved through one lattice point, so
    that bases tie at a degenerate vertex."""
    dim, normals, offsets = draw(_random_input())
    q = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    through = draw(st.lists(st.booleans(), min_size=len(normals),
                            max_size=len(normals)))
    return dim, normals, [Fraction(sum(a * b for a, b in zip(v, q))) if t
                          else lam
                          for v, lam, t in zip(normals, offsets, through)]


def _frame_point(normals, offsets, dim):
    """The point where the first dim independent facets are tight."""
    frame = []
    for j, v in enumerate(normals):
        if _exact.rank([normals[k] for k in frame] + [v]) > len(frame):
            frame.append(j)
    return _exact.solve([normals[j] for j in frame],
                        [offsets[j] for j in frame]).particular


@settings(max_examples=300, deadline=None)
@given(st.one_of(_random_input(), _input_through_point()))
# the segment x >= 0, y >= 0, x + y = 1: nonempty, so it has a basis,
# although parse rejects it for its empty interior
@example((2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [0, 0, -1, 1]))
def test_feasible_basis(data):
    # None exactly when the normals do not span or P is empty
    dim, normals, offsets = data
    p = Polytope(dim, tuple(zip(normals, map(Fraction, offsets))))
    start = lattice._feasible_basis(p)
    if _exact.rank(normals) < dim:
        event("normals do not span")
        assert start is None
        return
    nonempty = _feasible([(list(v), lam) for v, lam in zip(normals, offsets)],
                         strict=False)
    if all(l >= 0 for l in p.ell(_frame_point(normals, offsets, dim))):
        event("frame feasible")
    else:
        event("pivots past the frame, "
              + ("P nonempty" if nonempty else "P empty"))
    if not nonempty:
        assert start is None
        return
    basis, m, ext, _ = start
    rows = [normals[j] for j in basis]
    assert _exact.rank(rows) == dim
    assert all(l >= 0 for l in ext[dim:])
    # the reference tableau: B^-1 over <v_k, d_c>, the point over its slacks
    inv = _exact.inverse(rows)
    x = [sum(inv[i][c] * offsets[j] for c, j in enumerate(basis))
         for i in range(dim)]
    assert [list(row) for row in m] == inv + [
        [sum(v[i] * inv[i][c] for i in range(dim)) for c in range(dim)]
        for v in normals]
    assert ext == x + p.ell(x)


def _lex_slacks(p, basis):
    """The slacks at a basis under the offsets lambda_j - eps^(N-j), from
    the inverse of the basis rows: one dense row per facet, its value and
    then its eps-terms by increasing power of eps."""
    n, nf = p.dim, p.num_facets
    inv = _exact.inverse([p.normals[j] for j in basis])
    # offset j is lambda_j at power 0 and -1 at power N - j
    offset = [[lam] + [-int(k == nf - j) for k in range(1, nf + 1)]
              for j, lam in enumerate(p.offsets)]
    x = [[sum(inv[i][c] * offset[j][k] for c, j in enumerate(basis))
          for k in range(nf + 1)] for i in range(n)]
    return [[sum(v[i] * x[i][k] for i in range(n)) - offset[j][k]
             for k in range(nf + 1)] for j, v in enumerate(p.normals)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_random_input(), _input_through_point()))
# square pyramid: the apex lies on 4 facets, and 2 of its 4 bases are
# lexicographically feasible
@example(_PYRAMID)
# octahedron: every vertex lies on 4 facets
@example(_OCTAHEDRON)
# the frame is infeasible, and phase 1 pivots to the vertex (2, -1, -1) on
# facets 2-5; the basis {2, 3, 5} is feasible there but not
# lexicographically, and reading the eps-terms takes phase 1 on to {2, 4, 5}
@example((3, [(-1, -1, -2), (-1, -2, 0), (2, 1, 2), (-2, 1, 0), (-1, -2, 1),
              (1, 0, 1)], [Fraction(-5, 2), -1, 1, -5, -1, 1]))
def test_walk_yields_distinct_lex_feasible_bases(data):
    dim, normals, offsets = data
    p = Polytope(dim, tuple(zip(normals, map(Fraction, offsets))))
    bases = []
    try:
        for basis, *_ in lattice._feasible_bases(p):
            bases.append(frozenset(basis))
            for j, row in enumerate(_lex_slacks(p, basis)):
                # lexicographically nonnegative: the first nonzero term
                assert next((a for a in row if a), 0) >= 0, j
    except PolytopeError:
        event("unbounded")
    assert len(set(bases)) == len(bases)


def _carried_dets(p):
    """The phase-1 start and each basis the walk yields, with the det it
    carries, until the walk ends or finds P unbounded."""
    start = lattice._feasible_basis(p)
    bases = [] if start is None else [start]
    try:
        bases.extend(lattice._feasible_bases(p))
    except PolytopeError:
        event("unbounded")
    return [(basis, det) for basis, *_, det in bases]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_random_input(), _input_through_point()))
@example(_PYRAMID)
@example(_OCTAHEDRON)
def test_walk_carries_basis_determinant(data):
    # det B, row c the normal of facet basis[c], is the product of the
    # pivots that reached B; on P and on the polar kushnirenko_count walks
    dim, normals, offsets = data
    for p in (Polytope(dim, tuple(zip(normals, map(Fraction, offsets)))),
              Polytope(dim, tuple((v, Fraction(-1)) for v in normals))):
        for basis, det in _carried_dets(p):
            assert det == _leibniz([p.normals[j] for j in basis])


def test_vertex_walk_work_count(monkeypatch):
    # (P^1)^8: 16 facets, 256 vertices; the basis pass solved all
    # C(16, 8) = 12 870 bases
    k = 8
    text = f"dim {k}\n" + "".join(
        "normal " + " ".join(str(sign) if j == i else "0" for j in range(k))
        + f" offset {offset}\n"
        for i in range(k) for sign, offset in ((1, 0), (-1, -1)))
    counts = {"solve": 0, "pivot": 0}
    for name in counts:
        def counted(*args, _f=getattr(_exact, name), _name=name):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(_exact, name, counted)
    p = parse_polytope(text)
    assert counts["solve"] <= 1
    # one pivot per vertex past the first, at most n into the first basis
    assert counts["pivot"] <= 255 + k
    assert len(p.vertex_facets) == 256
    for x, act, inv in p.vertex_facets:
        assert len(act) == k
        assert all(inv[i][j] == 0 if i != j else abs(inv[i][j]) == 1
                   for i in range(k) for j in range(k))


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 12)),
                max_size=8))
def test_least_ratio_by_cross_multiplication(ratios):
    fracs = [Fraction(a, b) for a, b in ratios]
    want = [j for j, f in enumerate(fracs) if f == min(fracs)]
    assert lattice._least([(j, a, b) for j, (a, b) in enumerate(ratios)]) \
        == want


def _sparse_input(rng, dim):
    """Normals that are mostly zeros, offsets and a point of unlike
    denominators."""
    normals = []
    while len(normals) < dim + 4:
        v = tuple(rng.randint(-3, 3) if rng.random() < 0.3 else 0
                  for _ in range(dim))
        if any(v):
            normals.append(v)
    dens = (1, 2, 3, 4, 5, 6, 7, 12)
    offsets = [Fraction(rng.randint(-40, 40), rng.choice(dens))
               for _ in normals]
    x = [Fraction(rng.randint(-40, 40), rng.choice(dens)) for _ in range(dim)]
    return Polytope(dim, tuple(zip(normals, offsets))), x


def _plain_ell(p, x):
    return [sum(xi * vi for xi, vi in zip(x, v)) - lam
            for v, lam in p.facets]


@pytest.mark.parametrize("seed", range(30))
def test_ell_over_one_denominator_matches_plain_sums(seed):
    # Fractions at int, Fraction and mixed fibers, floats at float fibers
    rng = random.Random(seed)
    p, x = _sparse_input(rng, rng.randint(1, 8))
    fibers = (x, [int(c) for c in x], [int(c) if rng.random() < 0.5 else c
                                       for c in x], [float(c) for c in x])
    for fiber in fibers:
        got, want = p.ell(fiber), _plain_ell(p, fiber)
        assert got == want
        assert [type(l) for l in got] == [type(l) for l in want]
    assert all(type(l) is Fraction for l in p.ell(x))
    assert all(type(l) is float for l in p.ell(fibers[-1]))


@pytest.mark.parametrize("seed", range(30))
def test_centroid_over_one_denominator_matches_plain_sums(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 8)
    points = [_sparse_input(rng, dim)[1] for _ in range(rng.randint(1, 9))]
    got = lattice._centroid(points)
    want = [sum(v[i] for v in points) / len(points) for i in range(dim)]
    assert got == want
    assert all(type(c) is Fraction for c in got)


def _replace_column(m, col, values):
    return [row[:col] + [x] + row[col + 1:] for row, x in zip(m, values)]


# most drawn inputs are not bounded simple polytopes and are rejected, often
# enough that the filter health check can stop the test before it starts
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_random_input())
# test_non_smooth: not smooth
@example((2, [(1, 0), (0, 1), (-1, -2)], [0, 0, -4]))
# f2: smooth, not Fano
@example((2, [(1, 0), (0, 1), (0, -1), (-1, -2)], [0, 0, -2, -5]))
def test_fan_tests_match_determinants(data):
    try:
        f = normal_fan(parse_polytope(_input_text(*data)))
    except (PolytopeError, FanError):
        reject()
    n, gens = f.dim, f.generators
    smooth = fano = True
    for sigma in f.max_cones:
        b = [list(gens[j]) for j in sigma.generator_indices]
        d = _leibniz(b)
        smooth = smooth and abs(d) == 1
        # Cramer's rule: B u = (1, ..., 1), and the columns u_a of B^-1
        u = [_leibniz(_replace_column(b, i, [1] * n)) / d for i in range(n)]
        fano = fano and all(
            sum(x * y for x, y in zip(u, v)) < 1
            for k, v in enumerate(gens) if k not in sigma.generator_indices)
        duals = [[_leibniz(_replace_column(b, i, [int(r == a)
                                                  for r in range(n)])) / d
                  for i in range(n)] for a in range(n)]
        exps = [[sum(x * y for x, y in zip(v, ua)) for ua in duals]
                for v in gens]
        if all(e.denominator == 1 for row in exps for e in row):
            assert chart_exponents(f, sigma) == exps
        else:
            with pytest.raises(FanError, match="not unimodular"):
                chart_exponents(f, sigma)
    assert is_smooth(f) is smooth
    assert is_fano(f) is fano


class TestKushnirenko:
    def test_smooth_fano_corpus_is_chi(self, corpus):
        for name in ("p1", "p2", "p3", "p1xp1", "f1"):
            f = normal_fan(corpus[name])
            assert is_smooth(f) and is_fano(f), name
            assert (kushnirenko_count(f.dim, f.generators)
                    == euler_characteristic(f)), name

    def test_hirzebruch_by_hand(self, corpus):
        # F2: (0, -1) halves the edge from (1, 0) to (-1, -2), so
        # conv{v_j} is the triangle (1, 0), (0, 1), (-1, -2) of twice the
        # area 4; F3: (0, -1) is interior to (1, 0), (0, 1), (-1, -3),
        # of twice the area 5
        assert kushnirenko_count(2, corpus["f2"].normals) == 4
        assert kushnirenko_count(2, corpus["f3"].normals) == 5

    def test_square_facets(self):
        # the cube truncated at its corners: conv{v_j} is the cube
        # [-1, 1]^3, each square facet with its centre e_i among the v_j
        corners = [(a, b, c) for a in (1, -1) for b in (1, -1)
                   for c in (1, -1)]
        normals = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                   (0, 0, -1)] + corners
        f = normal_fan(parse_polytope(_input_text(
            3, normals, [-2] * 6 + [Fraction(-11, 2)] * 8)))
        assert kushnirenko_count(f.dim, f.generators) == 3 * 2 * 8

    @pytest.mark.parametrize("seed", range(12))
    def test_products_are_chi(self, seed):
        rng = random.Random(seed)
        factors, dim = [], 0
        while dim < 4:
            name = rng.choice([k for k in _FACTORS
                               if dim + len(_FACTORS[k][0][0]) <= 4])
            factors.append(name)
            dim += len(_FACTORS[name][0][0])
            if rng.random() < 0.3:
                break
        f = normal_fan(parse_polytope(_product(factors)))
        chi = 1
        for name in factors:
            chi *= _FACTORS[name][2]
        assert is_smooth(f) and is_fano(f)
        assert (kushnirenko_count(f.dim, f.generators)
                == euler_characteristic(f) == chi)


# (normals, offsets, chi) of the factors: P^1, P^2, P^3 and P^2 blown up
# at a point
_FACTORS = {
    "P1": ([(1,), (-1,)], [0, -2], 2),
    "P2": ([(1, 0), (0, 1), (-1, -1)], [0, 0, -3], 3),
    "P3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [0, 0, 0, -4],
           4),
    "Bl1P2": ([(1, 0), (0, 1), (-1, -1), (1, 1)], [0, 0, -3, 1], 4),
}


def _product(factors) -> str:
    dim = sum(len(_FACTORS[k][0][0]) for k in factors)
    normals, offsets, at = [], [], 0
    for name in factors:
        vs, lams, _ = _FACTORS[name]
        k = len(vs[0])
        for v, lam in zip(vs, lams):
            normals.append((0,) * at + v + (0,) * (dim - at - k))
            offsets.append(lam)
        at += k
    return _input_text(dim, normals, offsets)


def _hull_area2(points) -> int:
    """Twice the area of the convex hull of plane points (monotone chain)."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0])
                                     * (q[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1])
                                     * (q[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    hull = half(pts) + half(pts[::-1])
    return abs(sum(a[0] * b[1] - a[1] * b[0]
                   for a, b in zip(hull, hull[1:] + hull[:1])))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_random_input())
# F3: a generator interior to conv{v_j}
@example((2, [(1, 0), (0, 1), (0, -1), (-1, -3)], [0, 0, -2, -7]))
def test_kushnirenko_count_matches_hull(data):
    try:
        f = normal_fan(parse_polytope(_input_text(*data)))
    except (PolytopeError, FanError):
        reject()
    count = kushnirenko_count(f.dim, f.generators)
    if f.dim == 2:
        assert count == _hull_area2(f.generators)
    if is_smooth(f) and is_fano(f):
        assert count == euler_characteristic(f)


def _hull_facets(dim, gens) -> set:
    """The facets of conv(gens), 0 interior, by brute force: the generators
    on each hyperplane through dim of them that has every generator on the
    side of 0."""
    facets = set()
    for sub in combinations(range(len(gens)), dim):
        rows = [gens[j] for j in sub]
        if _exact.rank(rows) < dim:
            continue
        u = _exact.solve(rows, [1] * dim).particular
        heights = [sum(a * b for a, b in zip(u, v)) for v in gens]
        if all(h <= 1 for h in heights):
            facets.add(frozenset(j for j, h in enumerate(heights) if h == 1))
    return facets


def _pulling(face: frozenset, k: int, facets, gens) -> list[tuple[int, ...]]:
    """Simplices of a pulling triangulation of a face of conv(gens) that
    misses 0 and spans rank k, as tuples of k generator indices. The
    least index is pulled and joined to the triangulated facets of the face
    that miss it; a facet of the face is its meet with a facet of the
    polytope, of rank k - 1."""
    if len(face) == k:
        return [tuple(sorted(face))]
    apex = min(face)
    subs = {face & g for g in facets if apex not in g}
    return [s + (apex,) for sub in subs
            if _exact.rank([gens[j] for j in sub]) == k - 1
            for s in _pulling(sub, k - 1, facets, gens)]


def _kushnirenko_by_pulling(dim, gens) -> int:
    """The count the lexicographic walk replaced, kept as its reference:
    each facet of conv(gens) triangulated by pulling, and the |det| of
    every simplex summed."""
    facets = _hull_facets(dim, gens)
    return sum(abs(_leibniz([gens[j] for j in s]))
               for face in facets for s in _pulling(face, dim, facets, gens))


def _strictly_inside(q, points) -> bool:
    """q is interior to the hull of the plane points: each line through two
    of them with every point on its left has q strictly on its left."""
    def left(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return all(left(a, b, q) > 0 for a, b in permutations(points, 2)
               if all(left(a, b, c) >= 0 for c in points))


@st.composite
def _polygon_pyramid(draw):
    """A lattice polygon at height 1 over an apex (c, d, -1) below it, with
    0 interior to their hull; collinear and interior polygon points make
    facets that are not simplices."""
    points = sorted(draw(st.sets(st.tuples(st.integers(-3, 3),
                                           st.integers(-3, 3)),
                                 min_size=3, max_size=9)))
    c, d = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    assume(_strictly_inside((-c, -d), points))
    return [(a, b, 1) for a, b in points] + [(c, d, -1)]


@settings(max_examples=100, deadline=None)
@given(_polygon_pyramid())
# the pyramid over the square [-1, 1]^2: the top facet holds 9 generators
@example([(a, b, 1) for a in (-1, 0, 1) for b in (-1, 0, 1)] + [(0, 0, -1)])
def test_kushnirenko_count_matches_pulling(gens):
    assert kushnirenko_count(3, gens) == _kushnirenko_by_pulling(3, gens)


def _pyramid(dim, k):
    """The generators (a, 1), a in {-k, ..., k}^(dim - 1), and the apex
    (0, ..., 0, -1): K = 2 (dim - 1)! (2k)^(dim - 1)."""
    return [a + (1,) for a in product(range(-k, k + 1), repeat=dim - 1)] + [
        (0,) * (dim - 1) + (-1,)]


_P1_8 = [tuple(s * int(i == j) for j in range(8)) for i in range(8)
         for s in (1, -1)]


@pytest.mark.parametrize("dim, gens, count", [
    (3, _pyramid(3, 2), 64), (3, _pyramid(3, 3), 144),
    (4, _pyramid(4, 1), 96), (4, _pyramid(4, 2), 768), (8, _P1_8, 256)],
    ids=["3-2", "3-3", "4-1", "4-2", "p1^8"])
def test_kushnirenko_walk_visits_at_most_count(monkeypatch, dim, gens,
                                               count):
    # each basis of the polar walk is a simplex of |det| >= 1
    bases = []
    walk = lattice._feasible_bases

    def recorded(p):
        for b in walk(p):
            bases.append(frozenset(b[0]))
            yield b
    monkeypatch.setattr(lattice, "_feasible_bases", recorded)
    assert kushnirenko_count(dim, gens) == count
    assert len(set(bases)) == len(bases) <= count
    if dim == 8:
        assert len(bases) == count


def test_pyramid_file_count():
    # a simple polytope that is not Fano, with the 50 rays of _pyramid(3, 3)
    p = parse_polytope((DATA / "pyramid3.poly").read_text())
    assert sorted(p.normals) == sorted(_pyramid(3, 3))
    assert not is_fano(normal_fan(p))
    assert p.kushnirenko_count == 144


def _primitive_collections_by_subsets(f):
    """The 2^N scan primitive_collections replaced, kept as its reference:
    every generator subset that is not a cone while each subset one
    element smaller is."""
    spans = {frozenset(c.generator_indices)
             for cones in f.cones_by_dim.values() for c in cones}
    n_gens = len(f.generators)
    out = []
    for size in range(2, n_gens + 1):
        for sub in combinations(range(n_gens), size):
            s = frozenset(sub)
            if s in spans:
                continue
            if all(s - {j} in spans for j in sub):
                out.append(sub)
    return sorted(out)


@st.composite
def _product_input(draw):
    factors = draw(st.lists(st.sampled_from(sorted(_FACTORS)), min_size=1,
                            max_size=4))
    # at most 12 facets, so the reference scans at most 4 096 subsets
    while sum(len(_FACTORS[k][0]) for k in factors) > 12:
        factors.pop()
    return _product(factors)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(_random_input().map(lambda d: _input_text(*d)),
                 _product_input()))
def test_primitive_collections_match_subset_scan(text):
    try:
        f = normal_fan(parse_polytope(text))
    except (PolytopeError, FanError):
        reject()
    assert ([c.indices for c in primitive_collections(f)]
            == _primitive_collections_by_subsets(f))
