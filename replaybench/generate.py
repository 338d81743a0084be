"""Generate one workload's inputs for one seed and write them to a directory.

    python3 replaybench/generate.py <workload> <seed> <out_dir>

``run.py`` calls this in a separate process when the inputs are not cached,
so generation never touches the measuring process's memory peak.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, generate  # noqa: E402

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1:]
    generate(WORKLOADS[name], int(seed), Path(out_dir))
