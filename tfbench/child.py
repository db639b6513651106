"""Fresh-process entry points of the benchmark.

  child.py setup WORKLOAD SEED
      import toricfloer and load or generate the workload's inputs; exit.
  child.py inproc WORKLOAD SEED SECONDS TRACE RESULT
      run the in-process workload (oracle_corpus, exact_family) in whole
      rounds, check every output and write the timings to RESULT.
  child.py cli OP SPANS -- ARGV...
      run ``toricfloer.cli.main(ARGV)`` under the tracer; write the spans.

The parent sets the environment (BLAS threads, PYTHONPATH) and, for traced
runs, starts the interpreter with ``-X importtime``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import cases


def more_rounds(walls: list[float], seconds: float) -> bool:
    """Start another whole round if it should end within ``seconds``."""
    return not walls or sum(walls) + walls[-1] <= seconds


def import_toricfloer() -> float:
    """Import toricfloer.cli from the checkout; return the seconds taken."""
    t0 = time.perf_counter()
    import toricfloer.cli
    dt = time.perf_counter() - t0
    if cases.SRC not in Path(toricfloer.cli.__file__).resolve().parents:
        raise SystemExit(f"toricfloer imported from {toricfloer.cli.__file__}"
                         f", not from {cases.SRC}")
    return dt


def load_inputs(workload: str, seed: int):
    """Build the workload's operations (writing the exact_family files);
    return (ops, polytopes parsed by toricfloer for the oracle)."""
    if workload == "cli_corpus":
        return cases.cli_corpus_ops(seed), {}
    if workload == "exact_family":
        return cases.exact_family_ops(seed, cases.OUT / "inputs"
                                      / str(seed)), {}
    if workload != "oracle_corpus":
        raise SystemExit(f"unknown workload {workload!r}")
    # the oracle takes parsed polytopes; the CLI commands parse their files
    from toricfloer.lattice import parse_polytope
    from toricfloer.oracle import balanced_oracle  # noqa: F401
    ops = [cases.Op(c, "oracle", latency_sample=c.name not in
                    cases.ORACLE_SHORT) for c in cases.corpus_cases()]
    return ops, {op.case.name: parse_polytope(op.case.path.read_text())
                 for op in ops}


def _run_op(op, parsed):
    """Run one operation; return its output (report text or candidates)."""
    if op.command == "oracle":
        from toricfloer.oracle import balanced_oracle
        p = parsed[op.case.name]
        cands = balanced_oracle(p, **cases.ORACLE_GRIDS[p.dim])
        return [(c.point, c.nu) for c in cands]
    import toricfloer.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = toricfloer.cli.main(op.argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")
    return buf.getvalue()


def _check(op, output) -> list[str]:
    import checker
    if op.command == "oracle":
        return checker.check_oracle(op.case, output)
    return checker.check_report(op, output)


def inproc(workload: str, seed: int, seconds: float, trace: bool,
           result_path: str) -> None:
    import_s = import_toricfloer()
    ops, parsed = load_inputs(workload, seed)
    records, outputs, walls = [], [], []
    tracer = None
    while True:
        traced = trace and bool(walls)
        if traced:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        round_wall = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            error, out = None, None
            try:
                out = _run_op(op, parsed)
            except (Exception, SystemExit):  # counted, not fatal
                error = traceback.format_exc(limit=3)
            wall = time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            round_wall += wall
            records.append({
                "round": len(walls), "traced": traced, "op": i,
                "command": op.command, "case": op.case.name, "wall": wall,
                "cpu": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime
                                                      - r0.ru_stime),
                "latency_sample": op.latency_sample, "error": error})
            outputs.append((op, out))
        walls.append(round_wall)
        if tracer is not None:
            tracer.uninstall()
        if trace:
            if traced:
                break
        elif not more_rounds(walls, seconds):
            break
    for rec, (op, out) in zip(records, outputs):
        rec["check_errors"] = [] if rec["error"] else _check(op, out)
    result = {"records": records, "import_s": import_s}
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def traced_cli(op_id: int, spans_path: str, argv: list[str]) -> int:
    import_s = import_toricfloer()
    import spans
    import toricfloer.cli
    tracer = spans.Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        rc = toricfloer.cli.main(argv)
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return rc


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import_toricfloer()
        load_inputs(argv[1], int(argv[2]))
        return 0
    if mode == "inproc":
        inproc(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1",
               argv[5])
        return 0
    if mode == "cli":
        sep = argv.index("--")
        return traced_cli(int(argv[1]), argv[2], argv[sep + 1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
