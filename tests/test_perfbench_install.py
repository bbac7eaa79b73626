"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps
library functions and methods by name, so deleting or renaming one of
them breaks only that mode.  This runs its installer the way the
benchmark does, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_mode_installs():
    code = (
        "from perfbench.layers import install\n"
        "from perfbench.recorder import Recorder\n"
        "install(Recorder())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
