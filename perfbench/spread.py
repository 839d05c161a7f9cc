"""Run-to-run spread of the end-to-end metrics, as the acceptance rule computes it.

    python3 perfbench/spread.py --workload suite-all --seeds 1-10 --seconds 42

Runs `run.py --trace 0` once per seed, one after another, and prints for each
metric the median of its values and the distance between their first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of that
median.  Each run's last stdout line is appended to `--log` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="42")
    parser.add_argument("--log")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", "0"], capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(line + "\n")
        result = json.loads(line)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:20s} median {statistics.median(vals):.5g}  "
              f"IQR/median {(q3 - q1) / statistics.median(vals):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
