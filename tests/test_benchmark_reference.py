"""Every benchmark input variant, run in-process, matches the benchmark's
recorded reference outputs.

The benchmark checks its runs against ``perfbench/reference.json`` to a
relative tolerance of 1e-6; running the same check here makes a numeric
drift fail the test suite, not only a benchmark run.  perfbench/ is only
read here.
"""

import importlib.util
import os

import pytest

from fracflow.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


W = _workloads()
REFERENCE = W.load_reference()


@pytest.mark.parametrize("name, seed", [
    (name, seed) for name in W.WORKLOADS for seed in range(W.VARIANTS)
], ids=lambda v: str(v))
def test_variant_matches_reference(name, seed, tmp_path, capsys):
    workload = W.WORKLOADS[name]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(W.config_text(workload, seed))
    out_dir = str(tmp_path / "out")
    rc = main(W.program_args(workload, seed, str(cfg_path), out_dir))
    stdout = capsys.readouterr().out
    assert W.check_run(workload, seed, rc, stdout, out_dir, REFERENCE) == []
