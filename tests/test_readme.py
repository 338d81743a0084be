"""The README's CLI walkthrough runs as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _walkthrough() -> list[str]:
    """The commands of the ``sh`` block under "## CLI", continuations joined."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    text = block.replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")]


def test_the_walkthrough_has_every_subcommand():
    commands = {shlex.split(line)[1] for line in _walkthrough()}
    assert commands == {
        "make-synthetic", "cluster", "compress", "retrieve", "score-relevance",
        "build-paths", "simulate", "eval",
    }


def test_every_walkthrough_command_exits_zero(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for line in _walkthrough():
        argv = shlex.split(line.replace("/tmp/s", str(tmp_path)))
        assert argv[0] == "streamctx"
        done = subprocess.run(
            [sys.executable, "-m", "streamctx.cli", *argv[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, f"{line}\n{done.stderr}"
