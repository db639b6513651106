"""Benchmark inputs: the shipped corpus and a seeded exact family.

Every input is a ``Case``: the facet data the benchmark itself knows (parsed
here, not by toricfloer) plus its factor recipe, from which the checker
derives the closed-form answers. Workload operations are ``Op`` records.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS_DIR = SRC / "toricfloer" / "data" / "polytopes"
SCHEMA_PATH = SRC / "toricfloer" / "data" / "report.schema.json"
OUT = Path(__file__).resolve().parent / "out"

CORPUS = ("p1", "p2", "p3", "p1xp1", "f1", "f2", "f3")

# Factor kinds: "P" projective space (normals e_1..e_k, -sum e_i in its own
# coordinate block), "Bl" a point blowup of P^2 (F_1), "F2"/"F3" the
# non-Fano Hirzebruch surfaces. Blocks list each factor's facet indices.
CORPUS_FACTORS = {
    "p1": (("P", (0, 1)),),
    "p2": (("P", (0, 1, 2)),),
    "p3": (("P", (0, 1, 2, 3)),),
    "p1xp1": (("P", (0, 1)), ("P", (2, 3))),
    "f1": (("Bl", (0, 1, 2, 3)),),
    "f2": (("F2", (0, 1, 2, 3)),),
    "f3": (("F3", (0, 1, 2, 3)),),
}

# exact_family shapes: fixed across seeds so that the work per run is the
# same; the seed draws the rational offsets, truncation depths and fibers.
# Each lasts 0.4-1.8 s per command, so every operation is a latency sample.
FAMILY_SHAPES = (
    ("p1^6", ("P1",) * 6),
    ("p2^4", ("P2",) * 4),
    ("p3xp3xp1xp1", ("P3", "P3", "P1", "P1")),
    ("f1xp2xp1xp1", ("F1", "P2", "P1", "P1")),
    ("bl1p2xp2xp2", ("Bl1P2", "P2", "P2")),
    ("p2^3xp1", ("P2",) * 3 + ("P1",)),
    ("p3xp2xp1xp1", ("P3", "P2", "P1", "P1")),
    ("p3xp3xp2", ("P3", "P3", "P2")),
)


@dataclass(frozen=True)
class Case:
    name: str
    dim: int
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]
    factors: tuple[tuple[str, tuple[int, ...]], ...]
    path: Path

    @property
    def num_facets(self) -> int:
        return len(self.normals)

    def ell(self, x) -> list[Fraction]:
        return [sum((Fraction(a) * c for a, c in zip(x, v)), Fraction(0))
                - lam for v, lam in zip(self.normals, self.offsets)]


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` omits the program name and ``--json``."""

    case: Case
    command: str
    options: tuple[str, ...] = ()
    fiber: tuple[Fraction, ...] | None = None
    latency_sample: bool = True

    @property
    def argv(self) -> list[str]:
        args = [self.command, str(self.case.path), *self.options]
        if self.fiber is not None:
            # one token: a leading minus sign must not read as an option
            args.append("--fiber=" + ",".join(str(c) for c in self.fiber))
        return args + ["--json"]

    def option(self, flag: str, default: str) -> str:
        opts = list(self.options)
        return opts[opts.index(flag) + 1] if flag in opts else default


def read_poly(text: str):
    """The benchmark's own reader for the polytope file format."""
    dim, facets = None, []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if dim is None:
            dim = int(toks[1])
            continue
        sep = toks.index("offset")
        facets.append((tuple(int(t) for t in toks[1:sep]),
                       Fraction(toks[sep + 1])))
    return dim, tuple(v for v, _ in facets), tuple(lam for _, lam in facets)


def poly_text(dim: int, normals, offsets, comment: str) -> str:
    lines = [f"# {comment}", f"dim {dim}"]
    for v, lam in zip(normals, offsets):
        lines.append("normal " + " ".join(map(str, v)) + f" offset {lam}")
    return "\n".join(lines) + "\n"


def corpus_cases() -> list[Case]:
    out = []
    for name in CORPUS:
        path = CORPUS_DIR / f"{name}.poly"
        dim, normals, offsets = read_poly(path.read_text())
        out.append(Case(name, dim, normals, offsets, CORPUS_FACTORS[name],
                        path))
    return out


# ---------------------------------------------------------------------------
# exact family: products of seeded projective spaces and point blowups


def _q(rng: random.Random, lo: int, hi: int) -> Fraction:
    """Seeded rational in [lo, hi] with denominator at most 4."""
    den = rng.randint(1, 4)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _projective(rng, k):
    a = [_q(rng, -3, 3) for _ in range(k)]
    size = _q(rng, 2, 6)
    normals = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    normals.append(tuple([-1] * k))
    return "P", normals, a + [-(sum(a) + size)]


def _f1(rng):
    # corpus F_1 normals; trapezoid with bottom width w and height h
    x0, y0 = _q(rng, -3, 3), _q(rng, -3, 3)
    w, h = _q(rng, 1, 4), _q(rng, 1, 4)
    normals = [(1, 0), (0, 1), (0, -1), (-1, 1)]
    return "Bl", normals, [x0, y0, -(y0 + h), -(x0 + w - y0)]


def _bl1p2(rng):
    # P^2 with the vertex where x = a1 and y = a2 meet cut at depth 0 < d < s
    _, normals, offsets = _projective(rng, 2)
    size = -offsets[2] - offsets[0] - offsets[1]
    depth = size * Fraction(rng.randint(1, 7), 8)
    return "Bl", normals + [(1, 1)], offsets + [offsets[0] + offsets[1]
                                                + depth]


_FACTOR_MAKERS = {
    "P1": lambda rng: _projective(rng, 1),
    "P2": lambda rng: _projective(rng, 2),
    "P3": lambda rng: _projective(rng, 3),
    "F1": _f1,
    "Bl1P2": _bl1p2,
}


def product(parts):
    """Product polytope: factor normals embedded block-diagonally."""
    dim = sum(len(normals[0]) for _, normals, _ in parts)
    normals, offsets, factors = [], [], []
    shift = 0
    for kind, fnormals, foffsets in parts:
        k = len(fnormals[0])
        start = len(normals)
        for v, lam in zip(fnormals, foffsets):
            normals.append((0,) * shift + tuple(v) + (0,) * (dim - shift - k))
            offsets.append(Fraction(lam))
        factors.append((kind, tuple(range(start, len(normals)))))
        shift += k
    return dim, tuple(normals), tuple(offsets), tuple(factors)


def family_cases(seed: int, directory: Path) -> list[Case]:
    """Write the seeded exact family into ``directory`` and return it."""
    rng = random.Random(f"exact_family:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, shape in FAMILY_SHAPES:
        dim, normals, offsets, factors = product(
            [_FACTOR_MAKERS[kind](rng) for kind in shape])
        path = directory / f"{name}.poly"
        path.write_text(poly_text(dim, normals, offsets,
                                  f"{name}, exact_family seed {seed}"))
        out.append(Case(name, dim, normals, offsets, factors, path))
    return out


# ---------------------------------------------------------------------------
# fibers


def _solve(rows, rhs):
    """Unique solution of a square rational system, or None if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def vertices(dim, normals, offsets) -> list[tuple[Fraction, ...]]:
    """Brute-force vertex list, for the small factors and corpus only."""
    verts = set()
    for sub in itertools.combinations(range(len(normals)), dim):
        x = _solve([normals[j] for j in sub], [offsets[j] for j in sub])
        if x is not None and all(sum(a * c for a, c in zip(x, v)) >= lam
               for v, lam in zip(normals, offsets)):
            verts.add(tuple(x))
    return sorted(verts)


def balanced_point(case: Case):
    """Point where all facets of each projective factor are equidistant,
    or None when some factor is not a projective space."""
    if any(kind != "P" for kind, _ in case.factors):
        return None
    rows, rhs = [], []
    for _, block in case.factors:
        j0 = block[0]
        for j in block[1:]:
            rows.append([a - b for a, b in zip(case.normals[j0],
                                               case.normals[j])])
            rhs.append(case.offsets[j0] - case.offsets[j])
    return tuple(_solve(rows, rhs))


def interior_point(case: Case, rng: random.Random) -> tuple[Fraction, ...]:
    """Seeded rational interior point: a positive combination of the
    vertices of each factor."""
    point = [Fraction(0)] * case.dim
    for _, block in case.factors:
        coords = sorted({i for j in block for i, c in
                         enumerate(case.normals[j]) if c})
        fnormals = [tuple(case.normals[j][i] for i in coords) for j in block]
        verts = vertices(len(coords), fnormals,
                         [case.offsets[j] for j in block])
        weights = [rng.randint(1, 4) for _ in verts]
        for i, c in enumerate(coords):
            point[c] = (sum(w * v[i] for w, v in zip(weights, verts))
                        / sum(weights))
    return tuple(point)


def hf_fiber(case: Case, rng: random.Random) -> tuple[Fraction, ...]:
    """The balanced point on a coin flip when there is one, else a seeded
    interior point."""
    a = balanced_point(case)
    if a is not None and rng.random() < 0.5:
        return a
    return interior_point(case, rng)


# ---------------------------------------------------------------------------
# workload operations


CLI_FORMS = (("analyze", ()), ("hf", ()), ("hf", ("--coefficients", "exp")),
             ("balanced", ()), ("balanced", ("--mode", "holonomy")),
             ("critical", ()))


def cli_corpus_ops(seed: int) -> list[Op]:
    """The six command forms on each of the seven corpus polytopes."""
    rng = random.Random(f"cli_corpus:{seed}")
    cases = corpus_cases()
    return [Op(c, command, options,
               fiber=hf_fiber(c, rng) if command == "hf" else None)
            for command, options in CLI_FORMS for c in cases]


def exact_family_ops(seed: int, directory: Path) -> list[Op]:
    rng = random.Random(f"exact_family_fibers:{seed}")
    ops = []
    for c in family_cases(seed, directory):
        ops.append(Op(c, "analyze"))
        ops.append(Op(c, "balanced"))
        ops.append(Op(c, "hf", fiber=hf_fiber(c, rng)))
    return ops


# criterion-9 grids: n_a=120, n_nu=48 up to dimension 2, defaults above
ORACLE_GRIDS = {1: {"n_a": 120, "n_nu": 48}, 2: {"n_a": 120, "n_nu": 48},
                3: {}}
# the P^1 scan lasts about 0.05 s, too short to be a latency sample
ORACLE_SHORT = {"p1"}
