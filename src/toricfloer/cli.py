"""Command-line front end: analyze / hf / balanced / critical.

Exit codes: 0 success, 2 input error (message to stderr with file:line when
available), 3 numerical non-convergence (a partial report is still emitted).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from fractions import Fraction

from . import report as rep
from .discs import (FiberPoint, OverflowGuardError, SingularFiberError,
                    disc_area, index_two_classes)
from .floer import (HolonomyVector, UnsupportedRegimeError,
                    balanced_fibers_novikov, delta2_point, delta2_vanishes,
                    describe_balanced, hf_rank)
from .lattice import (FanError, PolytopeError, kushnirenko_count, normal_fan,
                      parse_polytope)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class NonConvergence(RuntimeError):
    """A numerical stage failed; the report built so far is still emitted."""


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise PolytopeError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise PolytopeError(f"{path}: {e}") from None
    try:
        p = parse_polytope(text)
    except PolytopeError as e:
        loc = f"{path}:{e.line}" if e.line is not None else path
        raise PolytopeError(f"{loc}: {e.args[0]}") from None
    return p


def _parse_fiber(arg: str, dim: int) -> FiberPoint:
    parts = [s.strip() for s in arg.split(",")]
    if len(parts) != dim:
        raise PolytopeError(
            f"--fiber needs {dim} comma-separated rationals, got {len(parts)}")
    try:
        return FiberPoint.rational(*[Fraction(s) for s in parts])
    except (ValueError, ZeroDivisionError):
        raise PolytopeError(f"bad fiber coordinates {arg!r}") from None


def _parse_holonomy(arg: str, dim: int) -> HolonomyVector:
    parts = [s.strip() for s in arg.split(",")]
    if len(parts) != dim:
        raise PolytopeError(
            f"--holonomy needs {dim} comma-separated angles, got {len(parts)}")
    try:
        angles = [float(s) for s in parts]
        if not all(map(math.isfinite, angles)):
            raise ValueError
    except ValueError:
        raise PolytopeError(f"bad holonomy angles {arg!r}") from None
    return HolonomyVector.of(*angles)


def _print_base(r: dict, out) -> None:
    p, f = r["polytope"], r["fan"]
    print(f"polytope: dim {p['dim']}, {len(p['facets'])} facets", file=out)
    for fac in p["facets"]:
        normal = " ".join(str(c) for c in fac["normal"])
        print(f"  normal {normal}  offset {fac['offset']}", file=out)
    print(f"fan: chi={f['euler_characteristic']} smooth={f['smooth']} "
          f"fano={f['fano']} cones={f['cone_counts']}", file=out)
    print(f"primitive collections: {r['primitive_collections']}", file=out)
    print(f"kernel basis: {r['kernel']['basis']}  "
          f"reduction levels: "
          f"{[str(x) for x in r['kernel']['reduction_level']]}", file=out)
    for w in r["warnings"]:
        print(f"warning: {w}", file=out)


def cmd_hf(args, p, fan, r: dict) -> None:
    fiber = _parse_fiber(args.fiber, p.dim)
    nu = _parse_holonomy(args.holonomy, p.dim) if args.holonomy else None
    try:
        fiber.require_interior(p)
    except SingularFiberError as e:
        raise PolytopeError(str(e)) from None
    d2 = delta2_point(p, fiber, nu)
    terms = []
    for t in d2.terms:
        vec = ([v for v in t.vector] if d2.exact else
               [[v.real, v.imag] for v in map(complex, t.vector)])
        terms.append({
            "level": t.level if d2.exact else float(t.level),
            "q_power": t.q_power,
            "vector": vec,
        })
    discs = [{"facet": j, "exponents": list(p.normals[j]),
              "area": disc_area(d, fiber, p)}
             for j, d in enumerate(index_two_classes(p))]
    try:
        rank = hf_rank(p, fiber, nu, coefficients=args.coefficients, fan=fan)
    except UnsupportedRegimeError as e:
        r["warnings"].append(f"unsupported regime: {e}")
        rank = None
    r["hf"] = {
        "fiber": list(fiber.coords),
        "holonomy": None if nu is None else [float(x) for x in nu.nu],
        "coefficients": args.coefficients,
        "delta2_terms": terms,
        "delta2_vanishes": delta2_vanishes(p, fiber, d2, args.coefficients),
        "rank": rank,
        "discs": discs,
    }


def cmd_balanced(args, p, fan, r: dict) -> None:
    if args.mode == "novikov":
        sols = balanced_fibers_novikov(p, fan)
        records = []
        for s in sols:
            d = rep.balanced_solution_record(s)
            d["description"] = describe_balanced(p, s).text
            records.append(d)
        r["balanced"] = {"mode": "novikov", "solutions": records,
                         "diagnostics": []}
    else:
        from .mirror import (build_superpotential, critical_points,
                             holonomy_balanced)

        sols, tests = holonomy_balanced(
            p, critical_points(build_superpotential(p), p), fan)
        r["balanced"] = {
            "mode": "holonomy",
            "solutions": [rep.balanced_solution_record(s) for s in sols],
            "diagnostics": [rep.level_test_record(t) for t in tests]}


def cmd_critical(args, p, fan, r: dict) -> None:
    from .mirror import (build_superpotential, check_delta2_equals_gradW,
                         check_o_equals_W, critical_points, holonomy_balanced)

    cps = critical_points(build_superpotential(p), p)
    balanced, tests = holonomy_balanced(p, cps, fan)
    records, corresp = [], []
    for cp, test in zip(cps, tests):
        records.append(rep.critical_point_record(cp, test.solution))
        fiber = FiberPoint.numeric(*cp.point.fiber)
        nu = HolonomyVector(cp.point.holonomy)
        try:
            corresp.append({
                "o_minus_W": check_o_equals_W(p, fiber, nu),
                "delta2_plus_gradW": check_delta2_equals_gradW(p, fiber, nu),
            })
        except SingularFiberError:
            corresp.append({"o_minus_W": None, "delta2_plus_gradW": None})
    r["critical"] = {
        "points": records,
        "count": len(cps),
        "kushnirenko_count": kushnirenko_count(p.dim, p.normals),
        "euler_characteristic": r["fan"]["euler_characteristic"],
        "balanced_solutions": [rep.balanced_solution_record(s)
                               for s in balanced],
        "correspondence": corresp,
    }
    if not cps:
        raise NonConvergence("no critical point converged")


def _print_human(r: dict, out) -> None:
    _print_base(r, out)
    if "hf" in r:
        h = r["hf"]
        print(f"fiber: {[str(c) for c in h['fiber']]}  "
              f"holonomy: {h['holonomy']}", file=out)
        print("delta2<pt> terms by area level:", file=out)
        for t in h["delta2_terms"]:
            print(f"  level {t['level']}  q^{t['q_power']}  "
                  f"vector {t['vector']}", file=out)
        if not h["delta2_terms"]:
            print("  (all levels cancel)", file=out)
        print(f"HF rank ({h['coefficients']} coefficients): {h['rank']}",
              file=out)
        print("index-2 disc areas:", file=out)
        for d in h["discs"]:
            print(f"  facet {d['facet']}  exponents {d['exponents']}  "
                  f"area {d['area']:.6f}", file=out)
    if "balanced" in r:
        b = r["balanced"]
        print(f"balanced fibers ({b['mode']} mode): "
              f"{len(b['solutions'])}", file=out)
        for s in b["solutions"]:
            pt = [str(c) for c in s["point"]]
            print(f"  A={pt}  nu={s['holonomy']}  "
                  f"partition={s['partition']}  residual={s['residual']:.3g}",
                  file=out)
            if "description" in s:
                print(f"    {s['description']}", file=out)
        for d in b["diagnostics"]:
            if d["message"]:
                print(f"  critical point A={d['point']} "
                      f"nu={d['holonomy']}: {d['message']}", file=out)
    if "critical" in r:
        c = r["critical"]
        print(f"critical points: {c['count']} "
              f"(Kushnirenko count {c['kushnirenko_count']}, "
              f"Euler characteristic {c['euler_characteristic']})", file=out)
        for cp in c["points"]:
            print(f"  Re Theta {cp['theta_re']}  Im Theta {cp['theta_im']}  "
                  f"residual {cp['residual']:.3g}  "
                  f"matched balanced: {cp['matched_balanced']}", file=out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toricfloer",
        description="Disc instantons, Floer vanishing criterion and mirror "
                    "superpotential critical points for toric manifolds.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("path", help="polytope file")
        sp.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report")

    sp = sub.add_parser("analyze", help="fan combinatorics and flags")
    common(sp)
    sp.set_defaults(func=None)

    sp = sub.add_parser("hf", help="Floer cohomology rank at a fiber")
    common(sp)
    sp.add_argument("--fiber", required=True,
                    help="comma-separated rational fiber coordinates")
    sp.add_argument("--holonomy", default=None,
                    help="comma-separated holonomy angles")
    sp.add_argument("--coefficients", choices=("novikov", "exp"),
                    default="novikov")
    sp.set_defaults(func=cmd_hf)

    sp = sub.add_parser("balanced", help="balanced fiber search")
    common(sp)
    sp.add_argument("--mode", choices=("novikov", "holonomy"),
                    default="novikov")
    sp.set_defaults(func=cmd_balanced)

    sp = sub.add_parser("critical", help="superpotential critical points")
    common(sp)
    sp.set_defaults(func=cmd_critical)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        p = _load(args.path)
        fan = normal_fan(p)
        r = rep.base_report(args.command, p, fan)
        # every warning the command raises goes to the report, whatever
        # filters the caller has set
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            try:
                if args.func is not None:
                    args.func(args, p, fan, r)
            finally:
                r["warnings"].extend(str(w.message) for w in rec)
    except (PolytopeError, FanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        _emit(r, args)
        return EXIT_NUMERIC
    except OverflowGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(r, args)
    return EXIT_OK


def _emit(r: dict, args) -> None:
    if args.json:
        sys.stdout.write(rep.dumps(r))
    else:
        _print_human(r, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
