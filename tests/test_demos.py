"""Smoke test of the narrative scripts under demos/: each runs to exit 0.

Each script runs in its own temporary working directory, where it writes
its plots when matplotlib is installed (and skips them otherwise).
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path, tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, MPLBACKEND="Agg")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, path], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
