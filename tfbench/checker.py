"""Independent checks on toricfloer outputs.

Nothing here calls toricfloer or compares against a stored report. Each
check derives the expected answer from the input and the method's
properties:

* every ``--json`` report validates against ``report.schema.json``;
* chi is the product of the factors' chi, with chi(P^k) = k + 1 and one
  point blowup of an n-fold adding n - 1;
* the kernel basis Q satisfies Q.V = 0 exactly and has rank N - n;
* the ``critical`` count is Kushnirenko's n! Vol(conv{v_j}), |grad W| is
  small at every point (recomputed here) and the points are distinct mod 2pi;
* for products of projective spaces the balanced fibers (Novikov, holonomy,
  oracle) and the critical points are the closed forms: the barycentre of
  each factor, with holonomies that are (k+1)-th roots of unity per P^k
  factor; any other factor leaves no solution;
* ``hf`` gives 2^n exactly when every equal-area level sum of the v_j
  vanishes (per level over the Novikov ring; specialised at T^{2pi} = e^-1
  for ``exp``), and no rank on non-Fano input.

Each ``check_*`` function returns a list of error strings; empty means pass.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import cases

TWO_PI = 2 * math.pi
HOLONOMY_TOL = 1e-8
ORACLE_TOL = 1e-6
DISTINCT_TOL = 1e-6
GRAD_TOL = 1e-9

FANO_KINDS = {"P", "Bl"}


# ---------------------------------------------------------------------------
# exact linear algebra over Q (kept apart from toricfloer._exact)


def _rref(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows) -> int:
    return len(_rref(rows)[1])


def _kernel_vector(rows, d):
    """A nonzero vector of the one-dimensional kernel of ``rows``."""
    m, pivots = _rref(rows)
    free = next(c for c in range(d) if c not in pivots)
    x = [Fraction(0)] * d
    x[free] = Fraction(1)
    for i, c in enumerate(pivots):
        x[c] = -m[i][free]
    return x


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n, d = len(m), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


# ---------------------------------------------------------------------------
# Kushnirenko count: normalized volume of conv{v_j}


def _facets(coords: dict, d: int):
    """(point ids, normal) of each facet of conv(coords) in Q^d."""
    ids = sorted(coords)
    seen = {}
    for sub in itertools.combinations(ids, d):
        base = coords[sub[0]]
        diffs = [[a - b for a, b in zip(coords[i], base)] for i in sub[1:]]
        if rank(diffs) != d - 1:
            continue
        a = _kernel_vector(diffs, d)
        b = sum(x * y for x, y in zip(a, base))
        side = [sum(x * y for x, y in zip(a, coords[i])) - b for i in ids]
        if all(s >= 0 for s in side) or all(s <= 0 for s in side):
            on = frozenset(i for i, s in zip(ids, side) if s == 0)
            seen.setdefault(on, a)
    return list(seen.items())


def _triangulate(coords: dict, d: int):
    """Pulling triangulation of conv(coords) from its lexicographically
    smallest point; yields tuples of d + 1 point ids."""
    apex = min(coords, key=lambda i: coords[i])
    if d == 1:
        yield (apex, max(coords, key=lambda i: coords[i]))
        return
    for on, normal in _facets(coords, d):
        if apex in on:
            continue
        k = next(i for i, x in enumerate(normal) if x != 0)
        sub = {i: coords[i][:k] + coords[i][k + 1:] for i in on}
        for simplex in _triangulate(sub, d - 1):
            yield (apex,) + simplex


def normalized_volume(points) -> int:
    """n! Vol(conv(points)) for points spanning Q^n."""
    coords = {i: tuple(Fraction(x) for x in p) for i, p in enumerate(points)}
    d = len(points[0])
    total = Fraction(0)
    for simplex in _triangulate(coords, d):
        base = coords[simplex[0]]
        total += abs(_det([[a - b for a, b in zip(coords[i], base)]
                           for i in simplex[1:]]))
    return int(total)


@lru_cache(maxsize=None)
def kushnirenko(normals) -> int:
    return normalized_volume(normals)


# ---------------------------------------------------------------------------
# closed forms from the factor recipe


def expected_chi(case: cases.Case) -> int:
    chi = 1
    for kind, block in case.factors:
        if kind == "P":  # P^k has k + 1 facets
            chi *= len(block)
        elif kind == "Bl":  # P^k blown up at a point: (k + 1) + (k - 1)
            chi *= 2 * (len(block) - 2)
        else:  # Hirzebruch surfaces: P^1-bundles over P^1
            chi *= 4
    return chi


def expected_fano(case: cases.Case) -> bool:
    return all(kind in FANO_KINDS for kind, _ in case.factors)


def _factor_coords(case, block):
    return sorted({i for j in block for i, c in enumerate(case.normals[j])
                   if c})


def holonomy_closed_form(case: cases.Case):
    """(A, nu) pairs: the barycentre with nu equal to 2 pi m / (k + 1) on
    every coordinate of each P^k factor. Empty when any factor is not a
    projective space."""
    a = cases.balanced_point(case)
    if a is None:
        return []
    per_factor = []
    for _, block in case.factors:
        k = len(block) - 1
        coords = _factor_coords(case, block)
        for j, i in zip(block, coords):  # normals e_i, then -sum e_i
            if case.normals[j][i] != 1:
                raise ValueError(f"{case.name}: factor is not in standard "
                                 f"position")
        per_factor.append([(coords, TWO_PI * m / (k + 1))
                           for m in range(k + 1)])
    out = []
    for choice in itertools.product(*per_factor):
        nu = [0.0] * case.dim
        for coords, theta in choice:
            for i in coords:
                nu[i] = theta
        out.append((tuple(float(x) for x in a), tuple(nu)))
    return out


def circ(x: float, y: float) -> float:
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


def _match_sets(got, expect, tol, what) -> list[str]:
    """Bijection between (A, nu) lists within ``tol``, nu taken mod 2pi."""
    errors = []
    if len(got) != len(expect):
        errors.append(f"{what}: {len(got)} solutions, closed form has "
                      f"{len(expect)}")
    unused = list(expect)
    for a, nu in got:
        hit = next((e for e in unused
                    if max(abs(x - y) for x, y in zip(a, e[0])) <= tol
                    and max(circ(x, y) for x, y in zip(nu, e[1])) <= tol),
                   None)
        if hit is None:
            errors.append(f"{what}: solution A={list(a)} nu={list(nu)} is "
                          f"not in the closed form")
        else:
            unused.remove(hit)
    return errors


def level_sums(case: cases.Case, fiber, specialise=False):
    """Per-level sums of the v_j at an exact fiber (trivial holonomy); with
    ``specialise``, the single sum with T^{2pi} = e^-1 instead."""
    ells = case.ell(fiber)
    if specialise:
        total = [sum(math.exp(-float(l)) * v[i]
                     for l, v in zip(ells, case.normals))
                 for i in range(case.dim)]
        scale = sum(math.exp(-float(l)) for l in ells)
        return [total], scale
    sums = {}
    for l, v in zip(ells, case.normals):
        acc = sums.setdefault(l, [0] * case.dim)
        for i, c in enumerate(v):
            acc[i] += c
    return list(sums.values()), 1.0


# ---------------------------------------------------------------------------
# report checks


@lru_cache(maxsize=None)
def _validator():
    import jsonschema
    schema = json.loads(cases.SCHEMA_PATH.read_text())
    return jsonschema.Draft7Validator(schema)


def check_schema(report: dict) -> list[str]:
    return [f"schema: {e.message}" for e in _validator().iter_errors(report)]


def _common(case: cases.Case, op: cases.Op, r: dict) -> list[str]:
    errors = []
    if r.get("command") != op.command:
        errors.append(f"command {r.get('command')!r} != {op.command!r}")
    poly = r["polytope"]
    echo = [(tuple(f["normal"]), Fraction(f["offset"]))
            for f in poly["facets"]]
    if poly["dim"] != case.dim or echo != list(zip(case.normals,
                                                   case.offsets)):
        errors.append("polytope echo differs from the input")
    chi = expected_chi(case)
    fan = r["fan"]
    if fan["euler_characteristic"] != chi:
        errors.append(f"chi {fan['euler_characteristic']} != {chi}")
    if fan["cone_counts"].get(str(case.dim)) != chi:
        errors.append(f"{fan['cone_counts'].get(str(case.dim))} maximal "
                      f"cones, chi is {chi}")
    if fan["smooth"] is not True:
        errors.append("fan not reported smooth")
    if fan["fano"] != expected_fano(case):
        errors.append(f"fano flag {fan['fano']} != {expected_fano(case)}")
    basis = r["kernel"]["basis"]
    for q in basis:
        qv = [sum(qj * v[i] for qj, v in zip(q, case.normals))
              for i in range(case.dim)]
        if any(qv):
            errors.append(f"kernel row {q}: Q.V = {qv} != 0")
    want = case.num_facets - case.dim
    if len(basis) != want or (basis and rank(basis) != want):
        errors.append(f"kernel basis has rank {rank(basis) if basis else 0}"
                      f", expected N - n = {want}")
    levels = [Fraction(x) for x in r["kernel"]["reduction_level"]]
    if levels != [-sum(Fraction(qj) * lam for qj, lam in
                       zip(q, case.offsets)) for q in basis]:
        errors.append("reduction levels are not -sum_j Q_j lambda_j")
    return errors


def _check_hf(case, op, h) -> list[str]:
    errors = []
    fiber = [Fraction(x) for x in h["fiber"]]
    if fiber != list(op.fiber):
        errors.append(f"hf fiber {h['fiber']} != {list(op.fiber)}")
    mode = op.option("--coefficients", "novikov")
    if mode == "novikov":
        sums, _ = level_sums(case, op.fiber)
        vanish = all(all(x == 0 for x in s) for s in sums)
    else:
        (total,), scale = level_sums(case, op.fiber, specialise=True)
        norm = math.sqrt(sum(abs(x) ** 2 for x in total))
        if 1e-9 * scale < norm < 1e-6 * scale:
            return errors + [f"hf exp: |sum| = {norm:g} is too close to "
                             f"the vanishing threshold to decide"]
        vanish = norm <= 1e-9 * scale
    if h["delta2_vanishes"] != vanish:
        errors.append(f"delta2_vanishes {h['delta2_vanishes']} != {vanish}")
    rank_ = (2 ** case.dim if vanish else 0) if expected_fano(case) else None
    if h["rank"] != rank_:
        errors.append(f"hf rank {h['rank']} != {rank_}")
    return errors


def _check_balanced(case, op, b) -> list[str]:
    mode = op.option("--mode", "novikov")
    if b["mode"] != mode:
        return [f"balanced mode {b['mode']} != {mode}"]
    if mode == "novikov":
        a = cases.balanced_point(case)
        expect = [] if a is None else [list(a)]
        got = [[Fraction(x) for x in s["point"]] for s in b["solutions"]]
        if got != expect or not all(s["exact"] for s in b["solutions"]):
            return [f"novikov balanced fibers {got} != {expect}"]
        return []
    got = [(s["point"], s["holonomy"]) for s in b["solutions"]]
    return _match_sets(got, holonomy_closed_form(case), HOLONOMY_TOL,
                       "holonomy balanced fibers")


def _grad_w(case, theta):
    w = [cmath.exp(float(lam) - sum(t * c for t, c in zip(theta, v)))
         for v, lam in zip(case.normals, case.offsets)]
    grad = [-sum(wj * v[i] for wj, v in zip(w, case.normals))
            for i in range(case.dim)]
    scale = sum(abs(wj) * math.sqrt(sum(c * c for c in v))
                for wj, v in zip(w, case.normals))
    return grad, scale


def _check_critical(case, c) -> list[str]:
    errors = []
    pts = c["points"]
    want = kushnirenko(case.normals)
    if c["count"] != len(pts) or len(pts) != want:
        errors.append(f"critical count {c['count']} ({len(pts)} points) != "
                      f"Kushnirenko n!Vol = {want}")
    if c["euler_characteristic"] != expected_chi(case):
        errors.append("critical euler_characteristic != chi")
    thetas = [[complex(a, b) for a, b in zip(p["theta_re"], p["theta_im"])]
              for p in pts]
    for th in thetas:
        grad, scale = _grad_w(case, th)
        norm = math.sqrt(sum(abs(g) ** 2 for g in grad))
        if norm > GRAD_TOL * max(1.0, scale):
            errors.append(f"|grad W| = {norm:g} at {th}")
    for s, t in itertools.combinations(thetas, 2):
        if max(max(abs(x.real - y.real), circ(x.imag, y.imag))
               for x, y in zip(s, t)) <= DISTINCT_TOL:
            errors.append(f"critical points {s} and {t} coincide mod 2pi")
    expect = holonomy_closed_form(case)
    if expect:
        got = [(tuple(x.real for x in th), tuple(-x.imag for x in th))
               for th in thetas]
        errors += _match_sets(got, expect, HOLONOMY_TOL, "critical points")
    return errors


def check_report(op: cases.Op, text: str) -> list[str]:
    """All checks that apply to one ``--json`` report of ``op``."""
    try:
        r = json.loads(text)
    except ValueError as e:
        return [f"report is not JSON: {e}"]
    errors = check_schema(r)
    if errors:
        return errors
    case = op.case
    errors = _common(case, op, r)
    if op.command == "hf":
        errors += _check_hf(case, op, r["hf"])
    elif op.command == "balanced":
        errors += _check_balanced(case, op, r["balanced"])
    elif op.command == "critical":
        errors += _check_critical(case, r["critical"])
    return [f"{op.command} {case.name}: {e}" for e in errors]


def check_oracle(case: cases.Case, candidates) -> list[str]:
    """``candidates``: (point, nu) pairs from ``oracle.balanced_oracle``."""
    return [f"oracle {case.name}: {e}" for e in
            _match_sets(list(candidates), holonomy_closed_form(case),
                        ORACLE_TOL, "oracle candidates")]
