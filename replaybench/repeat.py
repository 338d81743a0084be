"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 replaybench/repeat.py --runs 10 --seconds 30 [--first-seed 1] [--workload long-stream ...]

One untraced run per seed (``--first-seed`` onwards) per workload, one after
another.  For every metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, the distance between the
quartiles as a share of the median.
With ``--runs 1`` it is the one command that runs every workload to its end.
Exits nonzero if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path, help="also write every run's result as JSON")
    args = parser.parse_args(argv)

    ok = True
    results: dict[str, list[dict]] = {}
    for workload in args.workload:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            ok &= result["correct"]
            results.setdefault(workload, []).append(result)

    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, failed/attempted "
              + " ".join(f"{r['failed']}/{r['attempted']}" for r in runs))
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:32s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%} {first['unit']}")
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
