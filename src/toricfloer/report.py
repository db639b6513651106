"""Deterministic JSON report assembly and serialization.

Reports are plain dict/list/scalar trees. Serialization is hand-rolled so
that floats are always printed with 17 significant digits and rationals as
"p/q" strings: identical inputs must yield byte-identical reports.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lattice import (Fan, KernelLattice, Polytope, euler_characteristic,
                      is_fano, is_smooth, kernel_lattice,
                      primitive_collections)

SCHEMA_VERSION = 2


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def format_rational(x) -> str:
    return str(Fraction(x))


def _serialize(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, Fraction):
        out.append('"%s"' % format_rational(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n") + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(k, str):
                raise TypeError(f"non-string report key {k!r}")
            _serialize(k, out)
            out.append(": ")
            _serialize(v, out)
        out.append("}")
    elif isinstance(obj, list) or type(obj) is tuple:
        # a record is a tuple subclass; it has no JSON form of its own
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _serialize(v, out)
        out.append("]")
    else:
        raise TypeError(f"unserializable report value {obj!r}")


def dumps(report: dict) -> str:
    out: list[str] = []
    _serialize(report, out)
    return "".join(out) + "\n"


def polytope_echo(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "facets": [{"normal": list(v), "offset": lam} for v, lam in p.facets],
    }


def fan_summary(f: Fan) -> dict:
    return {
        "cone_counts": {str(k): len(v) for k, v in
                        sorted(f.cones_by_dim.items())},
        "euler_characteristic": euler_characteristic(f),
        "smooth": is_smooth(f),
        "fano": is_fano(f),
    }


def kernel_summary(k: KernelLattice) -> dict:
    return {
        "basis": [list(row) for row in k.basis],
        "reduction_level": list(k.reduction_level),
    }


def base_report(command: str, p: Polytope) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "polytope": polytope_echo(p),
        "fan": fan_summary(p.fan),
        "primitive_collections": [list(c.indices)
                                  for c in primitive_collections(p.fan)],
        "kernel": kernel_summary(kernel_lattice(p)),
        "warnings": [],
    }


def balanced_solution_record(s) -> dict:
    return {
        "point": list(s.point.coords),
        "exact": s.point.exact,
        "holonomy": (None if s.nu is None else [float(x) for x in s.nu.nu]),
        "partition": [list(b) for b in s.partition.blocks],
        "levels": list(s.partition.levels),
        "residual": float(s.residual),
    }


def level_test_record(t) -> dict:
    return {
        "point": [float(c) for c in t.fiber],
        "holonomy": [float(x) for x in t.nu],
        "partition": (None if t.partition is None
                      else [list(b) for b in t.partition.blocks]),
        "failed_level": t.failed_level,
        "residual": None if t.residual is None else float(t.residual),
        "message": t.message,
    }


def critical_point_record(cp, matched: int | None = None) -> dict:
    return {
        "theta_re": [float(t.real) for t in cp.point.theta],
        "theta_im": [float(t.imag) for t in cp.point.theta],
        "residual": float(cp.residual),
        "hessian_cond": (float(cp.hessian_cond)
                         if math.isfinite(cp.hessian_cond) else None),
        "degenerate": bool(cp.degenerate),
        "matched_balanced": matched,
    }
