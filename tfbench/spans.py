"""In-memory span recorder wrapped around toricfloer's public functions.

``Tracer.install()`` replaces each traced function, under every name a
toricfloer module binds it to (``cli.critical_points`` as well as
``mirror.critical_points``), with a wrapper that appends a span
``[id, parent, op, name, start, end]`` and updates counters. Nothing in
``src/`` changes; ``uninstall()`` restores the originals.
"""

from __future__ import annotations

import inspect
import resource
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Entries with a class attribute patch the
# class; names that are foreign to toricfloer (scipy's least_squares) are
# patched only in the module given, so each caller gets its own span name.
TARGETS = (
    ("lattice", "parse_polytope", "lattice.parse_polytope"),
    ("lattice", "normal_fan", "lattice.normal_fan"),
    ("lattice", "primitive_collections", "lattice.primitive_collections"),
    ("lattice", "kernel_lattice", "lattice.kernel_lattice"),
    ("lattice", "Polytope.vertices", "lattice.Polytope.vertices"),
    ("_exact", "solve", "exact.solve"),
    ("_exact", "rank", "exact.rank"),
    ("floer", "balanced_fibers_novikov", "floer.balanced_fibers_novikov"),
    ("floer", "equal_area_certificate", "floer.equal_area_certificate"),
    ("floer", "holonomy_search", "floer.holonomy_search"),
    ("floer", "hf_rank", "floer.hf_rank"),
    ("mirror", "critical_points", "mirror.critical_points"),
    ("mirror", "check_o_equals_W", "mirror.check_o_equals_W"),
    ("mirror", "check_delta2_equals_gradW",
     "mirror.check_delta2_equals_gradW"),
    ("oracle", "grid_scan", "oracle.grid_scan"),
    ("oracle", "balanced_oracle", "oracle.balanced_oracle"),
    ("kernels", "grid_min_residual", "kernels.grid_min_residual"),
    ("report", "base_report", "report.base_report"),
    ("report", "dumps", "report.dumps"),
)
FOREIGN = (
    ("floer", "least_squares", "floer.least_squares"),
    ("oracle", "least_squares", "oracle.least_squares"),
)

# per-layer metrics: name -> unit, in the order they are printed
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "lattice.parse_polytope.self_s": "s",
    "lattice.normal_fan.self_s": "s",
    "lattice.primitive_collections.self_s": "s",
    "lattice.kernel_lattice.self_s": "s",
    "lattice.Polytope.vertices.calls": "count",
    "exact.solve.calls": "count",
    "exact.solve.self_s": "s",
    "exact.rank.calls": "count",
    "exact.rank.self_s": "s",
    "floer.balanced_fibers_novikov.self_s": "s",
    "floer.equal_area_certificate.calls": "count",
    "floer.holonomy_search.self_s": "s",
    "floer.holonomy_search.partitions": "count",
    "floer.holonomy_search.starts": "count",
    "floer.holonomy_search.converged": "count",
    "floer.holonomy_search.solutions": "count",
    "floer.holonomy_search.useful_ratio": "ratio",
    "floer.least_squares.calls": "count",
    "floer.least_squares.self_s": "s",
    "floer.hf_rank.self_s": "s",
    "mirror.critical_points.self_s": "s",
    "mirror.critical_points.starts": "count",
    "mirror.critical_points.found": "count",
    "mirror.critical_points.useful_ratio": "ratio",
    "mirror.check_o_equals_W.self_s": "s",
    "mirror.check_delta2_equals_gradW.self_s": "s",
    "oracle.grid_scan.self_s": "s",
    "oracle.balanced_oracle.self_s": "s",
    "oracle.least_squares.calls": "count",
    "oracle.least_squares.self_s": "s",
    "oracle.balanced_oracle.candidates": "count",
    "kernels.grid_min_residual.self_s": "s",
    "kernels.grid_min_residual.cells": "count",
    "kernels.grid_min_residual.cells_per_s": "1/s",
    "kernels.grid_min_residual.flops": "flop",
    "kernels.grid_min_residual.bytes": "B",
    "kernels.grid_min_residual.sys_s": "s",
    "kernels.grid_min_residual.minflt": "count",
    "report.base_report.self_s": "s",
    "report.dumps.self_s": "s",
    "report.dumps.bytes": "B",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_holonomy(counts, fn, args, kwargs, res, _ru):
    a = _bound(fn, args, kwargs)
    n = a["p"].dim
    counts["floer.holonomy_search.partitions"] += len(res.diagnostics)
    counts["floer.holonomy_search.starts"] += a["grid"] ** n * sum(
        d.consistent for d in res.diagnostics)
    counts["floer.holonomy_search.converged"] += sum(
        d.converged for d in res.diagnostics)
    counts["floer.holonomy_search.solutions"] += len(res.solutions)


def _count_critical(counts, fn, args, kwargs, res, _ru):
    a = _bound(fn, args, kwargs)
    n = a["w"].dim
    counts["mirror.critical_points.starts"] += (a["grid_re"] ** n
                                                * a["grid_im"] ** n)
    counts["mirror.critical_points.found"] += len(res)


def _count_oracle(counts, fn, args, kwargs, res, _ru):
    counts["oracle.balanced_oracle.candidates"] += len(res)


def _count_kernel(counts, fn, args, kwargs, res, ru):
    a = _bound(fn, args, kwargs)
    ma, nfac = a["ell"].shape
    mnu, n, k = a["p_re"].shape[0], a["v"].shape[1], a["t"].shape[0]
    cells = ma * mnu * k
    key = "kernels.grid_min_residual."
    counts[key + "cells"] += cells
    # computed from the shapes: per cell, n complex sums over the N facets
    # of a real weight times a unit phase (4 flops a term) plus |s|^2
    counts[key + "flops"] += cells * (4 * n * nfac + 3 * n)
    # computed compulsory traffic: the input arrays once, the two outputs
    counts[key + "bytes"] += 8 * (ma * nfac + 2 * mnu * nfac + nfac * n + k
                                  + 2 * ma)
    counts[key + "sys_s"] += ru[0]
    counts[key + "minflt"] += ru[1]


def _count_dumps(counts, fn, args, kwargs, res, _ru):
    counts["report.dumps.bytes"] += len(res.encode("utf-8"))


HOOKS = {
    "floer.holonomy_search": _count_holonomy,
    "mirror.critical_points": _count_critical,
    "oracle.balanced_oracle": _count_oracle,
    "kernels.grid_min_residual": _count_kernel,
    "report.dumps": _count_dumps,
}
RUSAGE = {"kernels.grid_min_residual"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook, with_ru = HOOKS.get(name), name in RUSAGE
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, self.op, name,
                   0.0, 0.0]
            spans.append(rec)
            stack.append(sid)
            if with_ru:
                r0 = resource.getrusage(resource.RUSAGE_SELF)
            rec[4] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            ru = None
            if with_ru:
                r1 = resource.getrusage(resource.RUSAGE_SELF)
                ru = (r1.ru_stime - r0.ru_stime, r1.ru_minflt - r0.ru_minflt)
            if hook is not None:
                hook(counts, fn, args, kwargs, res, ru)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("toricfloer") and mod is not None}
        for modname, attr, name in TARGETS:
            mod = mods.get(f"toricfloer.{modname}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(getattr(cls, meth), name))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._set(m, key, wrapper)
        for modname, attr, name in FOREIGN:
            mod = mods.get(f"toricfloer.{modname}")
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is not None:
                self._set(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds): duration minus direct children."""
    child = defaultdict(float)
    for sid, parent, _op, _name, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, _parent, _op, name, t0, t1 in spans:
        out[name][0] += 1
        out[name][1] += (t1 - t0) - child[sid]
    return {k: (v[0], v[1]) for k, v in out.items()}


def layer_metrics(dumps, import_times, wall, untraced_wall) -> dict:
    """Per-layer metrics from the span dumps of every traced process.

    ``import_times``: (import_s, import_scipy_s) per fresh process.
    """
    counts: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    for d in dumps:
        for k, v in d["counts"].items():
            counts[k] += v
        for name, (n, s) in self_times(d["spans"]).items():
            calls[name] += n
            selfs[name] += s
    out = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = selfs[span]
        elif kind == "calls":
            out[metric] = calls[span]
        elif metric in counts:
            out[metric] = counts[metric]
        else:
            out[metric] = 0.0
    hs, cp = "floer.holonomy_search.", "mirror.critical_points."
    out[hs + "useful_ratio"] = (counts[hs + "solutions"]
                                / counts[hs + "converged"]
                                if counts[hs + "converged"] else 0.0)
    out[cp + "useful_ratio"] = (counts[cp + "found"] / counts[cp + "starts"]
                                if counts[cp + "starts"] else 0.0)
    k = "kernels.grid_min_residual."
    out[k + "cells_per_s"] = (counts[k + "cells"] / selfs[k[:-1]]
                              if selfs[k[:-1]] else 0.0)
    out["cli.import_s"] = statistics.median(t[0] for t in import_times)
    out["cli.import_scipy_s"] = statistics.median(t[1] for t in import_times)
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = wall - untraced_wall
    return out


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative seconds of the outermost ``scipy`` imports in a
    ``python -X importtime`` log."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|", 2)
        if not cum.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cum), name.strip()))
    # the log is in post-order; reversed, a parent precedes its children
    total, stack = 0, []
    for depth, cum, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cum
        stack.append((depth, inside or is_scipy))
    return total / 1e6
