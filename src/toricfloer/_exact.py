"""Exact linear algebra over the rationals and the integers.

Everything here works on plain Python lists of Fraction/int; sizes are tiny
(dimensions bounded by the number of polytope facets), so there is no need
for numpy object arrays.
"""

from __future__ import annotations

from fractions import Fraction


Row = list[Fraction]


def frac_matrix(rows) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def _eliminate(rows, rhs_cols: int = 0):
    """Gauss-Jordan elimination over Q, the one elimination in this module.

    The last ``rhs_cols`` columns of ``rows`` are right-hand sides: they are
    carried along but never pivoted on. Each column's pivot is its first
    nonzero entry at or below the current row. Returns the reduced rows and
    the (row, column) pivots.
    """
    m = frac_matrix(rows)
    nrows = len(m)
    ncols = len(m[0]) - rhs_cols if m else 0
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
    return m, pivots


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def inverse(rows) -> list[Row]:
    n = len(rows)
    m, pivots = _eliminate([list(r) + [int(i == j) for j in range(n)]
                            for i, r in enumerate(rows)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in m]


def pivot(rows, c: int, a) -> list[Row]:
    """Rank-one basis update over Q.

    ``rows`` are products M B^-1 for a nonsingular n x n matrix B, and
    ``a`` = w B^-1 for a row w with a[c] != 0. Returns the products M B'^-1,
    where B' is B with row c replaced by w: column c of B^-1 becomes
    d_c / a_c and every other column d_k loses a_k times that. With M the
    identity, ``rows`` is B^-1 and the result is B'^-1. Rows with a zero in
    column c are returned as they are. The pivot a_c is also the factor
    det B' / det B.
    """
    inv_p = 1 / Fraction(a[c])
    f = [x * inv_p for x in a]
    out = []
    for row in rows:
        rc = row[c]
        if rc == 0:
            out.append(row)
            continue
        new = [x - rc * fk if fk else x for x, fk in zip(row, f)]
        new[c] = rc * inv_p
        out.append(new)
    return out


class LinearSolution:
    """Result of eliminating A x = b over Q.

    ``particular`` is a solution of the consistent subsystem (free variables
    set to 0), ``free`` the indices of free columns, and ``violations`` the
    exact residuals b_i - A_i . particular of the inconsistent rows, keyed by
    the original row index.
    """

    def __init__(self, particular, free, violations):
        self.particular = particular
        self.free = free
        self.violations = violations

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def unique(self) -> bool:
        return self.consistent and not self.free


def solve(rows, rhs) -> LinearSolution:
    m, pivots = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)], 1)
    ncols = len(m[0]) - 1 if m else 0
    x = [Fraction(0)] * ncols
    for r, c in pivots:
        x[c] = m[r][-1]
    violations = {}
    # the rows left without a pivot are zero on the left; a nonzero right
    # side there is the only way the system can be inconsistent
    if any(row[-1] != 0 for row in m[len(pivots):]):
        for i, (row, b) in enumerate(zip(rows, rhs)):
            resid = Fraction(b) - sum(Fraction(v) * xv
                                      for v, xv in zip(row, x))
            if resid != 0:
                violations[i] = resid
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    return LinearSolution(x, free, violations)


def integer_kernel(rows) -> list[list[int]]:
    """Saturated Z-basis of {x : M x = 0} for an integer matrix M.

    Column-reduces M by unimodular column operations, tracking them in U;
    the columns of U over the zero columns of the reduced matrix form a
    basis of the kernel lattice (saturated because U is unimodular).
    """
    m = [list(map(int, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def colop(j, k, q):
        # col_k -= q * col_j
        for i in range(nrows):
            m[i][k] -= q * m[i][j]
        for i in range(ncols):
            u[i][k] -= q * u[i][j]

    def swap(j, k):
        for i in range(nrows):
            m[i][j], m[i][k] = m[i][k], m[i][j]
        for i in range(ncols):
            u[i][j], u[i][k] = u[i][k], u[i][j]

    piv = 0
    for r in range(nrows):
        # clear row r to a single pivot entry among columns >= piv
        while True:
            nz = [c for c in range(piv, ncols) if m[r][c] != 0]
            if len(nz) <= 1:
                break
            c0 = min(nz, key=lambda c: abs(m[r][c]))
            for c in nz:
                if c != c0:
                    colop(c0, c, m[r][c] // m[r][c0])
        nz = [c for c in range(piv, ncols) if m[r][c] != 0]
        if nz:
            if nz[0] != piv:
                swap(nz[0], piv)
            piv += 1
    kernel = []
    for c in range(ncols):
        if all(m[i][c] == 0 for i in range(nrows)):
            vec = [u[i][c] for i in range(ncols)]
            lead = next((v for v in vec if v != 0), 1)
            if lead < 0:
                vec = [-v for v in vec]
            kernel.append(vec)
    return kernel
