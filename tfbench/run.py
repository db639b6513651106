"""toricfloer benchmark: one workload per run, checked and measured.

    python3 tfbench/run.py --workload cli_corpus --seed 1 --seconds 30 \
        --trace 0

Workloads (closed loop, one client, one operation at a time):
  cli_corpus     42 fresh ``python -m toricfloer.cli ... --json`` processes:
                 six command forms on the seven corpus polytopes
  oracle_corpus  in-process ``oracle.balanced_oracle`` on the corpus at the
                 criterion-9 grids
  exact_family   in-process ``cli.main`` running analyze, balanced and hf on
                 eight seeded exact products and blowups (dimension 6-8,
                 10-12 facets)

A run repeats whole rounds of the workload's operations while another
round should end within ``--seconds`` (at least one round), then checks
every output with ``checker``. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced round and
prints the per-layer metrics from the spans. The last line of stdout is the
JSON result; details go to ``tfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import cases
import checker
import child
import spans

WORKLOADS = ("cli_corpus", "oracle_corpus", "exact_family")
BLAS_THREADS = 1
SETUP_PROCESSES = 5   # timed fresh processes, after one discarded warm-up
RUN_LIMIT_S = 170     # a run that would take longer fails without result
HERE = Path(__file__).resolve().parent
DEADLINE = time.monotonic() + RUN_LIMIT_S


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(cases.SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    # cache bytecode in the checkout, as an installed package has it; the
    # discarded warm-up process writes it before anything is timed
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, out_path: Path, err_path: Path, env):
    """Run argv with stdout/stderr to files; return (exit code, wall s,
    rusage of the child). A child still running at the deadline is killed
    and the run ends without a result."""
    timeout = int(DEADLINE - time.monotonic())
    if timeout < 1:
        raise SystemExit(f"run exceeded {RUN_LIMIT_S} s")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped, killed = False, []

    def kill(_sig, _frame):
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)

    old = signal.signal(signal.SIGALRM, kill)
    signal.alarm(timeout)
    try:
        _, status, ru = os.wait4(pid, 0)
        reaped = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    wall = time.perf_counter() - t0
    if killed:
        raise SystemExit(f"killed at the {RUN_LIMIT_S} s limit: {argv}")
    return os.waitstatus_to_exitcode(status), wall, ru


def measure_setup(workload: str, seed: int, env, work: Path) -> float:
    """Median over fresh processes of interpreter start to toricfloer
    imported and inputs ready."""
    argv = [sys.executable, str(HERE / "child.py"), "setup", workload,
            str(seed)]
    times = []
    for i in range(SETUP_PROCESSES + 1):
        rc, wall, _ = spawn(argv, work / "setup.out", work / "setup.err", env)
        if rc != 0:
            raise SystemExit(f"set-up process failed ({rc}): "
                             + (work / "setup.err").read_text()[-2000:])
        if i:
            times.append(wall)
    return statistics.median(times)


def run_cli_corpus(seed: int, seconds: float, trace: bool, env, work: Path):
    ops = cases.cli_corpus_ops(seed)
    records, dumps, imports, walls = [], [], [], []
    while True:
        traced = trace and bool(walls)
        round_wall = 0.0
        for i, op in enumerate(ops):
            out, err = work / f"op{i}.out", work / f"op{i}.err"
            span_file = work / f"op{i}.spans.json"
            if traced:
                argv = [sys.executable, "-X", "importtime",
                        str(HERE / "child.py"), "cli", str(i),
                        str(span_file), "--", *op.argv]
            else:
                argv = [sys.executable, "-m", "toricfloer.cli", *op.argv]
            rc, wall, ru = spawn(argv, out, err, env)
            round_wall += wall
            rec = {"round": len(walls), "traced": traced, "op": i,
                   "command": " ".join(op.argv[:1] + op.argv[2:-1]),
                   "case": op.case.name, "wall": wall,
                   "cpu": ru.ru_utime + ru.ru_stime,
                   "maxrss_kb": ru.ru_maxrss, "latency_sample": True,
                   "error": None if rc == 0 else
                   f"exit {rc}: {err.read_text()[-500:]}"}
            rec["check_errors"] = ([] if rec["error"] else
                                   checker.check_report(op, out.read_text()))
            if traced and rc == 0:
                dump = json.loads(span_file.read_text())
                dumps.append(dump)
                imports.append((dump["import_s"],
                                spans.scipy_import_s(err.read_text())))
            records.append(rec)
        walls.append(round_wall)
        if trace:
            if traced:
                break
        elif not child.more_rounds(walls, seconds):
            break
    peak_kb = max(r["maxrss_kb"] for r in records if not r["traced"])
    return records, peak_kb, dumps, imports


def run_inproc(workload: str, seed: int, seconds: float, trace: bool, env,
               work: Path):
    result_path = work / "inproc.json"
    argv = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        str(HERE / "child.py"), "inproc", workload, str(seed), str(seconds),
        "1" if trace else "0", str(result_path)]
    err = work / "inproc.err"
    rc, _, ru = spawn(argv, work / "inproc.out", err, env)
    if rc != 0:
        raise SystemExit(f"{workload} worker failed ({rc}): "
                         + err.read_text()[-3000:])
    res = json.loads(result_path.read_text())
    dumps, imports = [], []
    if trace:
        dumps = [res["trace"]]
        imports = [(res["import_s"], spans.scipy_import_s(err.read_text()))]
    return res["records"], ru.ru_maxrss, dumps, imports


def round_sums(records, key: str) -> list[float]:
    sums: dict[int, float] = {}
    for r in records:
        sums[r["round"]] = sums.get(r["round"], 0.0) + r[key]
    return [sums[k] for k in sorted(sums)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (cases.SRC / "toricfloer" / "cli.py").is_file():
        print(f"error: toricfloer sources not found under {cases.SRC}",
              file=sys.stderr)
        return 2
    env = child_env()
    work = cases.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)

    trace = bool(args.trace)
    setup_s = (None if trace else
               measure_setup(args.workload, args.seed, env, work))
    if args.workload == "cli_corpus":
        records, peak_kb, dumps, imports = run_cli_corpus(
            args.seed, args.seconds, trace, env, work)
    else:
        records, peak_kb, dumps, imports = run_inproc(
            args.workload, args.seed, args.seconds, trace, env, work)

    failed = [r for r in records if r["error"]]
    errors = [e for r in records for e in r["check_errors"]]
    untraced = [r for r in records if not r["traced"]]
    walls = round_sums(untraced, "wall")
    if trace:
        traced_wall = sum(r["wall"] for r in records if r["traced"])
        values = spans.layer_metrics(dumps, imports, traced_wall, walls[0])
        metrics = {k: metric(values[k], u)
                   for k, u in spans.LAYER_METRICS.items()}
        (cases.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
         ).write_text("".join(json.dumps({"op": s[2], "id": s[0],
                                          "parent": s[1], "name": s[3],
                                          "start": s[4], "end": s[5]}) + "\n"
                              for d in dumps for s in d["spans"]))
    else:
        lat = [r["wall"] for r in untraced if r["latency_sample"]]
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "op_p50_s": metric(statistics.median(lat), "s"),
            "setup_s": metric(setup_s, "s"),
            "cpu_s": metric(statistics.median(round_sums(untraced, "cpu")),
                            "s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        }
    result = {"correct": not errors, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  blas_threads=BLAS_THREADS, rounds=len(walls),
                  round_walls=walls, errors=errors[:50],
                  failures=[r["error"] for r in failed][:10],
                  records=records)
    (cases.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(detail, indent=1))
    print(f"# {args.workload} seed {args.seed}: {len(walls)} round(s), "
          f"{len(records)} operations, blas_threads={BLAS_THREADS}")
    for e in errors[:20]:
        print(f"# check failed: {e}")
    for r in failed[:5]:
        print(f"# operation failed: {r['command']} {r['case']}: "
              f"{r['error'][-300:]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
