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


def rank(rows) -> int:
    m = frac_matrix(rows)
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def det(rows) -> Fraction:
    m = frac_matrix(rows)
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def inverse(rows) -> list[Row]:
    n = len(rows)
    m = [list(r) + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(frac_matrix(rows))]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]


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
    a = frac_matrix(rows)
    b = [Fraction(x) for x in rhs]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        b[r], b[piv] = b[piv], b[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        b[r] *= inv
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                b[i] -= f * b[r]
        pivots.append((r, c))
        r += 1
    x = [Fraction(0)] * ncols
    for rr, c in pivots:
        x[c] = b[rr]
    violations = {}
    for i, row in enumerate(rows):
        resid = Fraction(rhs[i]) - sum(Fraction(v) * xv for v, xv in zip(row, x))
        if resid != 0:
            violations[i] = resid
    free = [c for c in range(ncols) if c not in {c for _, c in pivots}]
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
