from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricfloer import _exact
from toricfloer.lattice import (Cone, FanError, PolytopeError,
                                chart_coordinates, chart_exponents,
                                euler_characteristic, is_fano, is_smooth,
                                kernel_lattice, normal_fan, parse_polytope,
                                primitive_collections, serialize_polytope)

from conftest import CORPUS, corpus_polytope, corpus_text

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
        assert not is_smooth(normal_fan(p))


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
        f = normal_fan(p)
        k = kernel_lattice(f, p)
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
        k = kernel_lattice(normal_fan(corpus["p2"]), corpus["p2"])
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
        assert _exact.det([[2, 1], [1, 1]]) == 1
        inv = _exact.inverse([[2, 1], [1, 1]])
        assert inv == [[Fraction(1), Fraction(-1)],
                       [Fraction(-1), Fraction(2)]]

    def test_integer_kernel_saturation(self):
        # kernel of (2 4) over Z is generated by (2, -1), not (4, -2)
        ker = _exact.integer_kernel([[2, 4]])
        assert ker == [[2, -1]]


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
    offsets = [Fraction(draw(st.integers(-6, 2)), draw(st.sampled_from((1, 2))))
               for _ in normals]
    return dim, normals, offsets


@settings(max_examples=300, deadline=None)
@given(_random_input())
def test_parse_accepts_exactly_nonempty_bounded(data):
    dim, normals, offsets = data
    assume(len(normals) >= dim + 1)
    text = f"dim {dim}\n" + "".join(
        "normal " + " ".join(map(str, v)) + f" offset {lam}\n"
        for v, lam in zip(normals, offsets))
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
