import random
from fractions import Fraction

import numpy as np
import pytest

from toricfloer.discs import (BlaschkeLift, DiscClass, FiberPoint,
                              SingularFiberError, disc_area, disc_area_exact,
                              evaluate_lift, index_two_classes, lift_fiber,
                              make_lift, maslov_index, torus_coordinate_form,
                              winding_maslov)
from toricfloer.lattice import kernel_lattice, normal_fan

from conftest import CORPUS, assert_record, corpus_polytope


class TestFiberPoint:
    def test_rational_interior(self, corpus):
        a = FiberPoint.rational(3, 3)
        # the facet distances it checks
        assert a.require_interior(corpus["p2"]) == a.ell(corpus["p2"]) \
            == [3, 3, 3]

    def test_boundary_rejected(self, corpus):
        with pytest.raises(SingularFiberError):
            FiberPoint.rational(0, 3).require_interior(corpus["p2"])

    def test_numeric_mode(self, corpus):
        a = FiberPoint.numeric(1.5, 2.5)
        assert not a.exact
        assert a.require_interior(corpus["p2"]) == a.ell(corpus["p2"])


class TestRecords:
    @pytest.mark.parametrize("make, field", [
        (lambda: FiberPoint.rational(1, 2), "coords"),
        (lambda: DiscClass((1, 0, 2)), "multiplicities"),
        (lambda: BlaschkeLift(DiscClass((1, 2)), (1.0, 2.0)), "roots"),
    ], ids=["FiberPoint", "DiscClass", "BlaschkeLift"])
    def test_value_semantics(self, make, field):
        assert_record(make, field)

    def test_disc_classes_add_multiplicities(self):
        d = DiscClass((1, 0, 2)) + DiscClass((0, 3, 1))
        assert type(d) is DiscClass and d.multiplicities == (1, 3, 3)

    def test_defaults(self):
        assert FiberPoint((1, 2)).exact
        lift = BlaschkeLift(DiscClass((1, 0, 2)), (1.0, 1.0, 1.0))
        assert lift.phases == (0.0, 0.0, 0.0)
        assert lift.roots == ((0j,), (), (0j, 0j))


class TestIndexArea:
    def test_index_two_classes(self, corpus):
        for name in CORPUS:
            p = corpus_polytope(name)
            for d in index_two_classes(p):
                assert maslov_index(d) == 2
                assert d.total == 1

    def test_maslov_additive(self):
        d1, d2 = DiscClass((1, 0, 2)), DiscClass((0, 3, 1))
        assert maslov_index(d1 + d2) == maslov_index(d1) + maslov_index(d2)

    def test_area_formula_p2(self, corpus):
        a = FiberPoint.rational(1, 3)
        d = DiscClass((2, 0, 1))
        # 2 * ell_0 + ell_2 = 2*1 + (9 - 4) = 7 in units of 2 pi
        assert disc_area_exact(d, a, corpus["p2"]) == Fraction(7)
        assert disc_area(d, a, corpus["p2"]) == pytest.approx(
            7 * 2 * np.pi)

    def test_area_additive_exact(self, corpus):
        p = corpus_polytope("f1")
        a = FiberPoint.rational(Fraction(-1, 3), Fraction(1, 5))
        d1, d2 = DiscClass((1, 2, 0, 1)), DiscClass((0, 1, 3, 2))
        assert (disc_area_exact(d1 + d2, a, p) ==
                disc_area_exact(d1, a, p) + disc_area_exact(d2, a, p))

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            DiscClass((1, -1, 0))

    def test_torus_coordinate_form(self, corpus):
        f = normal_fan(corpus["p2"])
        assert torus_coordinate_form(2, f) == (-1, -1)
        with pytest.raises(IndexError):
            torus_coordinate_form(3, f)


class TestLift:
    def test_moduli_on_moment_level(self, corpus):
        p = corpus["p2"]
        k = kernel_lattice(p)
        c = lift_fiber(FiberPoint.rational(3, 3), p, k)
        assert np.allclose(c, np.sqrt(6.0))

    def test_root_in_disc_required(self):
        with pytest.raises(ValueError, match="not in open disc"):
            BlaschkeLift(DiscClass((1,)), (1.0,), roots=((1.2 + 0j,),))

    def test_boundary_modulus_constant(self, corpus):
        p = corpus["f1"]
        k = kernel_lattice(p)
        a = FiberPoint.rational(Fraction(1, 4), Fraction(1, 3))
        lift = make_lift(DiscClass((2, 1, 0, 1)), a, p, k,
                         phases=(0.3, 0.1, 0.0, 2.2),
                         roots=((0.3 + 0.1j, -0.2j), (0.5 + 0j,), (), (0.1j,)))
        for theta in np.linspace(0, 2 * np.pi, 17):
            vals = evaluate_lift(lift, np.exp(1j * theta))
            assert np.allclose([abs(v) for v in vals], lift.moduli)

    def test_winding_matches_index(self, corpus):
        rng = random.Random(7)
        p = corpus["p1xp1"]
        k = kernel_lattice(p)
        a = FiberPoint.rational(Fraction(1, 2), Fraction(3, 2))
        for _ in range(10):
            d = DiscClass(tuple(rng.randint(0, 3) for _ in range(4)))
            roots = tuple(
                tuple(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                      for _ in range(m)) for m in d.multiplicities)
            lift = make_lift(d, a, p, k, roots=roots)
            assert winding_maslov(lift) == maslov_index(d)

    def test_winding_independent_of_phases(self, corpus):
        p = corpus["p2"]
        k = kernel_lattice(p)
        a = FiberPoint.rational(2, 5)
        d = DiscClass((1, 2, 1))
        w0 = winding_maslov(make_lift(d, a, p, k))
        w1 = winding_maslov(make_lift(d, a, p, k, phases=(1.0, 2.0, 3.0)))
        assert w0 == w1 == maslov_index(d)
