"""Smoke test of the narrative scripts under demos/: each runs to exit 0,
plot branch included.

Each script runs in its own temporary working directory, where it writes
its plots.  Where matplotlib is not installed, the stand-in under
``mpl_stub/`` takes its place, so the plot code still runs (and draws
nothing).
"""

import glob
import importlib.util
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path, tmp_path):
    paths = [os.path.join(ROOT, "src")]
    if importlib.util.find_spec("matplotlib") is None:
        paths.append(os.path.join(HERE, "mpl_stub"))
    env = dict(os.environ, MPLBACKEND="Agg")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths + [env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, path], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "matplotlib not installed" not in proc.stdout
