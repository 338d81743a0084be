"""The replay benchmark's own tests pass against the package sources.

They run in a separate process from the repository root: in this process
``conftest`` already names ``tests/conftest.py``, and the benchmark's tests
import their own.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_replaybench_tests_pass():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "replaybench", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
