"""Replay benchmark for streamctx.

    python3 replaybench/run.py --workload long-stream --seed 0 --seconds 20 --trace 0

Run from the repository root.  Inputs for the workload and seed are
generated once by ``generate.py`` (a separate process) and cached under
``replaybench/.work/``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  The exit code is 1 when
an output check fails.
"""

from __future__ import annotations

import argparse
import logging
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set before the interpreter starts, so hashing and BLAS threads are the same
#: in every run.  BLAS gets one thread: the loop is a single closed-loop client.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def inputs_dir(workload, seed: int) -> Path:
    return HERE / ".work" / "inputs" / f"{workload.name}-seed{seed}-{workload.fingerprint()}"


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "streamctx").is_dir():
        print(f"no streamctx sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = inputs_dir(workload, args.seed)
    if not inputs.is_dir():
        subprocess.run(
            [sys.executable, str(HERE / "generate.py"), args.workload, str(args.seed), str(inputs)],
            check=True,
        )

    from replay import END_TO_END, PER_LAYER, run_workload

    # One retrieval reply in ten is malformed on purpose; keep its warnings quiet.
    logging.getLogger("streamctx").setLevel(logging.ERROR)
    spans_out = HERE / ".work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    outcome = run_workload(workload, inputs, args.seconds, bool(args.trace),
                           spans_out if args.trace else None)
    units = PER_LAYER if args.trace else END_TO_END
    for note in outcome.notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:32s} {outcome.metrics[name]:14.4f} {unit}")
    print(f"questions attempted {outcome.attempted}, failed {outcome.failed}")
    print(outcome.result_line(units))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main(sys.argv[1:]))
