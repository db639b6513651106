"""The rules that finish every search, in plain Python: the angle wrap,
deduplication modulo 2 pi and the sort key of the results.

The Newton searches of `mirror` and the grid oracle all hand their
converged points to `dedup_mod_2pi` and sort what it keeps by `sort_key`,
so a point is "the same" and "first" under one rule everywhere.
"""

from __future__ import annotations

import math

TWO_PI = 2 * math.pi


def wrap_angle(x: float) -> float:
    """An angle in [0, 2 pi), with values within 1e-9 of the 0 / 2 pi
    seam, on either side, snapped to 0."""
    x %= TWO_PI
    return 0.0 if x > TWO_PI - 1e-9 or x < 1e-9 else x


def sort_key(x, tol: float) -> tuple:
    """Coordinates rounded to the tol grid, so that a result's place in a
    sorted list does not hang on the last bit of a coordinate. A quotient
    x / tol that is not finite (inf, nan) stays as it is."""
    return tuple(round(q) if math.isfinite(q) else q
                 for q in [t / tol for t in x])


def _near(lin_a, ang_a, lin_b, ang_b, tol: float) -> bool:
    """Within tol in every coordinate, and every angle on the circle; a
    non-finite coordinate is never within tol."""
    for x, y in zip(lin_a, lin_b):
        if not abs(x - y) <= tol:
            return False
    for x, y in zip(ang_a, ang_b):
        d = abs(x - y) % TWO_PI
        if not min(d, TWO_PI - d) <= tol:
            return False
    return True


def dedup_mod_2pi(lin, ang, tol: float) -> list[int]:
    """Indices of the rows kept by deduplication, best-ranked first.

    Rows are ranked by position; lin holds at least one coordinate per
    row. Two rows are duplicates when every coordinate of lin differs by
    at most tol and every angle of ang by at most tol on the circle; each
    cluster keeps its best-ranked row. Rows are grouped by the sort_key of
    their coordinates, angles wrapped, and the first row of each group, in
    rank order, is kept unless it is near a row kept before it, which also
    merges clusters split by a grid line or by the 0 / 2 pi seam.
    """
    ang = [[wrap_angle(x) for x in row] for row in ang]
    cells, kept = set(), []
    # the kept rows by floor(lin_0 / 4 tol): a row within tol of a kept
    # row lies in its bin or a neighbouring one, so each row is compared
    # with those alone; a non-finite quotient is its own bin
    bins: dict[float, list[int]] = {}
    for i, (a, b) in enumerate(zip(lin, ang)):
        cell = sort_key([*a, *b], tol)
        if cell in cells:
            continue
        cells.add(cell)
        q = a[0] / (4 * tol)
        if math.isfinite(q):
            q = math.floor(q)
        if not any(_near(a, b, lin[k], ang[k], tol)
                   for d in (q - 1, q, q + 1) for k in bins.get(d, ())):
            kept.append(i)
            bins.setdefault(q, []).append(i)
    return kept
