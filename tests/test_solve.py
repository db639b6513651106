import math
import warnings

import numpy as np

from toricfloer.solve import (TWO_PI, circ_dist, dedup_mod_2pi,
                              least_squares, sort_key, wrap_angle)


def test_wrap_angle_snaps_below_two_pi():
    got = wrap_angle([-math.pi / 2, TWO_PI, TWO_PI - 1e-10, 7.0])
    assert np.allclose(got, [3 * math.pi / 2, 0.0, 0.0, 7.0 - TWO_PI])
    assert got[2] == 0.0


def test_circ_dist_across_seam():
    assert math.isclose(circ_dist(0.1, TWO_PI - 0.1), 0.2)
    assert math.isclose(circ_dist(0.0, math.pi), math.pi)
    assert np.allclose(circ_dist([0.0, 3.0], [TWO_PI, 3.0 + 4 * math.pi]), 0)


def test_sort_key_ignores_last_bit():
    assert sort_key([1.0, 0.5], 1e-6) == sort_key([0.9999999999999999, 0.5],
                                                  1e-6)
    assert sort_key([1.0], 1e-6) < sort_key([1.0 + 2e-6], 1e-6)


class TestDedup:
    def test_merges_across_seam(self):
        ang = np.array([[1e-10], [TWO_PI - 3e-9], [math.pi]])
        lin = np.zeros((3, 1))
        assert list(dedup_mod_2pi(lin, ang, 1e-8)) == [0, 2]

    def test_merges_across_rounding_cell(self):
        tol = 1e-6
        # 0.49 tol and 0.51 tol round to different cells but are 0.02 tol
        # apart
        lin = np.array([[0.51 * tol, 0.0], [0.49 * tol, 0.0], [1.0, 0.0]])
        ang = np.zeros((3, 1))
        assert list(dedup_mod_2pi(lin, ang, tol)) == [0, 2]

    def test_keeps_best_ranked_of_each_cluster(self):
        rng = np.random.default_rng(3)
        centres = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 6.2]])
        members = np.repeat(centres, 5, axis=0)
        members += rng.uniform(-1e-9, 1e-9, size=members.shape)
        order = rng.permutation(len(members))
        lin, ang = members[order, :1], members[order, 1:]
        kept = dedup_mod_2pi(lin, ang, 1e-6)
        assert len(kept) == 3
        # each kept row is the first (best-ranked) row of its cluster
        cluster = order // 5
        firsts = sorted(np.flatnonzero(cluster == c)[0] for c in range(3))
        assert list(kept) == firsts

    def test_separated_points_all_kept(self):
        lin = np.arange(4.0)[:, None]
        ang = np.arange(4.0)[:, None]
        assert list(dedup_mod_2pi(lin, ang, 1e-4)) == [0, 1, 2, 3]

    def test_empty(self):
        empty = np.zeros((0, 2))
        assert dedup_mod_2pi(empty, empty, 1e-6).size == 0


def _circle_fun(x):
    """Overdetermined: the point on the unit circle at angle x[1] equals
    (cos 1, sin 1) scaled by x[0] = 1, plus the redundant x[0] = 1."""
    return np.column_stack([x[:, 0] * np.cos(x[:, 1]) - math.cos(1.0),
                            x[:, 0] * np.sin(x[:, 1]) - math.sin(1.0),
                            x[:, 0] - 1.0])


def test_solver_overdetermined_many_starts():
    rng = np.random.default_rng(0)
    x0 = np.column_stack([rng.uniform(0.5, 2.0, 50),
                          rng.uniform(-2.0, 4.0, 50)])
    x, norm = least_squares(_circle_fun, x0)
    assert x.shape == x0.shape and norm.shape == (50,)
    assert (norm < 1e-12).all()
    assert np.allclose(x[:, 0], 1.0)
    assert np.allclose(circ_dist(x[:, 1], 1.0), 0.0, atol=1e-12)
    assert np.allclose(norm, np.linalg.norm(_circle_fun(x), axis=1))


def test_solver_drops_diverging_rows_silently():
    def fun(x):
        # the root is x = log(2) / 10; exp overflows from x = 71 on, and
        # from x = -5 the first Gauss-Newton trial lands near x = 1e21
        return np.exp(10 * x) - 2.0

    x0 = np.array([[0.3], [800.0], [np.nan], [-5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, norm = least_squares(fun, x0)
    assert norm[1] == np.inf and norm[2] == np.inf
    assert x[1, 0] == 800.0
    assert np.isfinite(x[[0, 3]]).all()
    assert norm[0] < 1e-12
    assert math.isclose(x[0, 0], math.log(2) / 10)
