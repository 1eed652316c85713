"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload roots --seeds 1-10 --seconds 10

For every metric it prints the median of the runs and the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of that median. Runs go one after another, never in parallel, so that they
do not compete for the processor. Every run uses `--trace 0`: the bounds
belong to the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="range LO-HI")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()

    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)
    if len(runs) < 2:
        return 0
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{args.workload} {name}: median {median:.6g} iqr/median {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
