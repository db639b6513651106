"""Run the benchmark over several seeds and report each metric's spread.

    python3 tfbench/spread.py --workload exact_family --seeds 1-10 \
        --seconds 20 [--trace 0]

For each metric: the median, and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
Also prints the failed share of operations in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:45s} median {med:.6g}  IQR/median {spread:.4f}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
