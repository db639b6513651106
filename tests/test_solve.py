import math
import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer.oracle import least_squares
from toricfloer.solve import TWO_PI, dedup_mod_2pi, sort_key, wrap_angle


def circ_dist(x, y):
    """Distance between angles on the circle, elementwise."""
    d = np.abs(np.subtract(x, y)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _wrap_array(x):
    """wrap_angle of every entry, in numpy."""
    out = np.mod(np.asarray(x, dtype=float), TWO_PI)
    out[(out > TWO_PI - 1e-9) | (out < 1e-9)] = 0.0
    return out


def _dedup_pairwise(lin, ang, tol):
    """The reference: every pair of rounding-group leaders compared at
    once in an L x L array, then the greedy pass in rank order."""
    lin = np.asarray(lin, dtype=float)
    ang = _wrap_array(ang)
    if not len(lin):
        return np.empty(0, dtype=np.int64)
    keys = np.round(np.hstack([lin, ang]) / tol)
    _, first = np.unique(keys, axis=0, return_index=True)
    lead = np.sort(first)
    dl = np.abs(lin[lead, None, :] - lin[None, lead, :]).max(axis=-1,
                                                             initial=0.0)
    da = circ_dist(ang[lead, None, :], ang[None, lead, :]).max(axis=-1,
                                                              initial=0.0)
    near = np.maximum(dl, da) <= tol
    kept: list[int] = []
    for i in range(len(lead)):
        if not near[i, kept].any():
            kept.append(i)
    return lead[kept]


def test_wrap_angle_snaps_below_two_pi():
    got = [wrap_angle(x) for x in (-math.pi / 2, TWO_PI, TWO_PI - 1e-10,
                                   7.0)]
    assert np.allclose(got, [3 * math.pi / 2, 0.0, 0.0, 7.0 - TWO_PI])
    assert got[2] == 0.0


def test_wrap_angle_snaps_above_zero():
    # both sides of the seam give the same representative
    got = [wrap_angle(x) for x in (2.5e-34, -2.5e-34, 1e-10, 2e-9)]
    assert got == [0.0, 0.0, 0.0, 2e-9]
    assert got == _wrap_array([2.5e-34, -2.5e-34, 1e-10, 2e-9]).tolist()


def test_circ_dist_across_seam():
    assert math.isclose(circ_dist(0.1, TWO_PI - 0.1), 0.2)
    assert math.isclose(circ_dist(0.0, math.pi), math.pi)
    assert np.allclose(circ_dist([0.0, 3.0], [TWO_PI, 3.0 + 4 * math.pi]), 0)


def test_sort_key_ignores_last_bit():
    assert sort_key([1.0, 0.5], 1e-6) == sort_key([0.9999999999999999, 0.5],
                                                  1e-6)
    assert sort_key([1.0], 1e-6) < sort_key([1.0 + 2e-6], 1e-6)
    # a quotient that is not finite stays as it is
    assert sort_key([math.inf, -math.inf, 1e303], 1e-6) == (
        math.inf, -math.inf, math.inf)
    assert math.isnan(sort_key([math.nan], 1e-6)[0])


class TestDedup:
    def test_merges_across_seam(self):
        ang = [[1e-10], [TWO_PI - 3e-9], [math.pi]]
        lin = [[0.0]] * 3
        assert dedup_mod_2pi(lin, ang, 1e-8) == [0, 2]

    def test_merges_across_rounding_cell(self):
        tol = 1e-6
        # 0.49 tol and 0.51 tol round to different cells but are 0.02 tol
        # apart
        lin = [[0.51 * tol, 0.0], [0.49 * tol, 0.0], [1.0, 0.0]]
        ang = [[0.0]] * 3
        assert dedup_mod_2pi(lin, ang, tol) == [0, 2]

    def test_keeps_best_ranked_of_each_cluster(self):
        rng = np.random.default_rng(3)
        centres = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 6.2]])
        members = np.repeat(centres, 5, axis=0)
        members += rng.uniform(-1e-9, 1e-9, size=members.shape)
        order = rng.permutation(len(members))
        lin, ang = members[order, :1].tolist(), members[order, 1:].tolist()
        kept = dedup_mod_2pi(lin, ang, 1e-6)
        assert len(kept) == 3
        # each kept row is the first (best-ranked) row of its cluster
        cluster = order // 5
        firsts = sorted(np.flatnonzero(cluster == c)[0] for c in range(3))
        assert kept == firsts

    def test_separated_points_all_kept(self):
        lin = [[float(i)] for i in range(4)]
        ang = [[float(i)] for i in range(4)]
        assert dedup_mod_2pi(lin, ang, 1e-4) == [0, 1, 2, 3]

    def test_empty(self):
        assert dedup_mod_2pi([], [], 1e-6) == []

    def test_memory_linear_in_leaders(self):
        # the pairwise comparison of 3000 leaders needed an array of
        # 3000 x 3000 x 3 floats, 216 MB
        lin = [[float(i)] * 2 for i in range(3000)]
        ang = [[1.0]] * 3000
        tracemalloc.start()
        try:
            kept = dedup_mod_2pi(lin, ang, 1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept == list(range(3000))
        assert peak < 4 * 2 ** 20


    def test_far_and_non_finite_rows(self):
        # rows at |lin / tol| of 2^50 and more, where one ulp exceeds tol,
        # and rows on both sides of +-2^49 tol; inf and nan are never near
        tol = 1e-6
        base = 2.0 ** 50 * tol
        step = np.spacing(base)
        edge = 2.0 ** 49 * tol
        lin = np.array([[base], [base + 3 * step], [base + 4 * step],
                        [base - step], [np.inf], [np.nan], [np.inf],
                        [base + 2.0 ** 48 * tol],
                        # a far row kept first, then a near one beside it,
                        # and the other way round
                        [edge + 0.3 * tol], [edge - 0.6 * tol],
                        [-edge + 0.6 * tol], [-edge - 0.3 * tol]])
        ang = np.zeros((len(lin), 1))
        ang[2] = TWO_PI - 0.5 * tol
        kept = dedup_mod_2pi(lin.tolist(), ang.tolist(), tol)
        with np.errstate(invalid="ignore"):
            assert kept == _dedup_pairwise(lin, ang, tol).tolist()
        assert kept == [0, 4, 5, 7, 8, 10]
        # distinct leaders sharing an infinite coordinate: inf - inf is nan,
        # and the comparison stays silent
        lin = [[math.inf, 0.0], [math.inf, 1.0], [math.nan, 0.0],
               [-math.inf, 0.0], [math.inf, 0.0]]
        ang = [[0.0]] * len(lin)
        kept = dedup_mod_2pi(lin, ang, tol)
        with np.errstate(invalid="ignore"):
            assert kept == _dedup_pairwise(lin, ang, tol).tolist()
        assert kept == [0, 1, 2, 3]

    def test_kept_leaders_beside_a_cell(self):
        # leaders within tol of each other in neighbouring floor(lin / tol)
        # cells, in every direction, merge into the first
        tol = 1e-6
        offsets = np.array([(a, b) for a in (-0.9, 0.0, 0.9)
                            for b in (-0.9, 0.0, 0.9)]) * tol
        lin = np.vstack([[[3.02 * tol, -7.5 * tol]],
                         [3.02 * tol, -7.5 * tol] + offsets]).tolist()
        ang = [[0.0]] * len(lin)
        assert dedup_mod_2pi(lin, ang, tol) == [0]


_TOL = 1e-6
# cluster centres on and beside rounding-grid lines, and on both sides of
# the 0 / 2 pi seam
_LIN_CENTRES = [0.0, 0.5 * _TOL, 1.5 * _TOL, -2.5 * _TOL, 1.0, 1.0 + _TOL]
_ANG_CENTRES = [0.0, 0.5 * _TOL, TWO_PI - 0.5 * _TOL, TWO_PI - 3 * _TOL,
                math.pi, math.pi + 0.5 * _TOL]


@st.composite
def _clustered_rows(draw):
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 6))
    coord = st.floats(-1.0, 1.0)
    centres = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(_LIN_CENTRES), min_size=a,
                           max_size=a),
                  st.lists(st.sampled_from(_ANG_CENTRES), min_size=b,
                           max_size=b)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(
        st.integers(0, len(centres) - 1),
        st.lists(coord, min_size=a + b, max_size=a + b)),
        min_size=1, max_size=30))
    lin, ang = [], []
    for c, jitter in rows:
        # members lie within one tol of their centre, so a cluster can
        # span a grid line or the seam, and two clusters can touch
        lin.append([x + _TOL * j for x, j in zip(centres[c][0], jitter)])
        ang.append([x + _TOL * j for x, j in zip(centres[c][1],
                                                  jitter[a:])])
    return np.array(lin), np.array(ang)


@settings(max_examples=300, deadline=None)
@given(_clustered_rows())
def test_dedup_matches_pairwise_reference(rows):
    lin, ang = rows
    assert (dedup_mod_2pi(lin, ang, _TOL)
            == _dedup_pairwise(lin, ang, _TOL).tolist())


@settings(max_examples=300, deadline=None)
@given(_clustered_rows())
def test_plain_python_merge_matches_dedup(rows):
    # every caller hands the merge plain lists, and holonomy mode merges
    # its few balanced fibers without numpy
    lin, ang = rows
    assert (dedup_mod_2pi(lin.tolist(), ang.tolist(), _TOL)
            == _dedup_pairwise(lin, ang, _TOL).tolist())
    # the sort key is the rounding of the reference's groups
    for x in np.hstack([lin, ang]):
        assert sort_key(x.tolist(), _TOL) == tuple(np.round(x / _TOL))


def _circle_fun(x):
    """Overdetermined: the point on the unit circle at angle x[1] equals
    (cos 1, sin 1) scaled by x[0] = 1, plus the redundant x[0] = 1; with
    the Jacobian of those residuals."""
    cos, sin = np.cos(x[:, 1]), np.sin(x[:, 1])
    r = np.column_stack([x[:, 0] * cos - math.cos(1.0),
                         x[:, 0] * sin - math.sin(1.0),
                         x[:, 0] - 1.0])
    jac = np.stack([np.column_stack([cos, -x[:, 0] * sin]),
                    np.column_stack([sin, x[:, 0] * cos]),
                    np.column_stack([np.ones(len(x)), np.zeros(len(x))])],
                   axis=1)
    return r, jac


def _exp_fun(x):
    """exp(10 x) - 2, whose root is x = log(2) / 10, and its derivative;
    exp overflows from x = 71 on."""
    e = np.exp(10 * x)
    return e - 2.0, 10 * e[:, :, None]


def test_solver_overdetermined_many_starts():
    rng = np.random.default_rng(0)
    x0 = np.column_stack([rng.uniform(0.5, 2.0, 50),
                          rng.uniform(-2.0, 4.0, 50)])
    x, norm = least_squares(_circle_fun, x0)
    assert x.shape == x0.shape and norm.shape == (50,)
    assert (norm < 1e-12).all()
    assert np.allclose(x[:, 0], 1.0)
    assert np.allclose(circ_dist(x[:, 1], 1.0), 0.0, atol=1e-12)
    assert np.allclose(norm, np.linalg.norm(_circle_fun(x)[0], axis=1))


def test_solver_drops_diverging_rows_silently():
    # from x = -5 the uncapped Gauss-Newton step would land near x = 1e21
    x0 = np.array([[0.3], [800.0], [np.nan], [-5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, norm = least_squares(_exp_fun, x0)
    assert norm[1] == np.inf and norm[2] == np.inf
    assert x[1, 0] == 800.0
    assert np.isfinite(x[[0, 3]]).all()
    assert norm[0] < 1e-12
    assert math.isclose(x[0, 0], math.log(2) / 10)


def test_solver_rows_are_independent():
    # a NaN start, a start whose residual overflows and one whose Jacobian
    # overflows (J^2 = 100 e^709, where r^2 = e^709 is finite) leave every
    # other row's x and norm bit-identical: with them the finite-row filter
    # runs, without them every row stays finite
    x0 = np.array([[0.3], [-5.0], [0.05], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, norm = least_squares(_exp_fun, x0)
        mixed = np.array([[0.3], [800.0], [-5.0], [np.nan], [0.05], [35.45],
                          [1.0]])
        x_mixed, norm_mixed = least_squares(_exp_fun, mixed)
    rows = [0, 2, 4, 6]
    assert np.array_equal(x_mixed[rows], x)
    assert np.array_equal(norm_mixed[rows], norm)
    assert np.isinf(norm_mixed[[1, 3]]).all()
    assert x_mixed[5, 0] == 35.45 and np.isfinite(norm_mixed[5])
