"""Check that the traced count metrics repeat exactly and follow the seed.

    python3 perfbench/repeat_counts.py --workload roots --seed 1 --other-seed 2

Runs the traced benchmark twice on `--seed` and once on `--other-seed`. Every
count metric (unit `count` or `bits`) must be identical between the first two
runs, and the certificates' fingerprint must differ on the other seed, which
shows that the inputs really change with the seed. Exits 1 if either fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_UNITS = ("count", "bits")


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    return json.loads(lines[-1])["metrics"], info


def fingerprint(info: dict) -> str:
    return info.get("results_sha256") or info["verify_sha256"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    args = ap.parse_args()

    (first, info1), (second, _), (other, info2) = (
        traced(args.workload, s) for s in (args.seed, args.seed, args.other_seed)
    )
    ok = True
    for name, m in first.items():
        if m["unit"] not in COUNT_UNITS:
            continue
        same = m["value"] == second[name]["value"]
        ok &= same
        print(f"{name}: {m['value']} / {second[name]['value']} {'same' if same else 'DIFFERENT'}"
              f" (seed {args.other_seed}: {other[name]['value']})")
    moved = fingerprint(info1) != fingerprint(info2)
    ok &= moved
    print(f"inputs {'change' if moved else 'DO NOT change'} between seeds {args.seed} and {args.other_seed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
