"""What the benchmark under perfbench/ needs from the library.

The benchmark feeds the CLI its own config files, times a set-up snippet
that imports config builders by name, and, in a traced run, wraps library
functions and OperatorContext methods by name.  These checks fail when a
change to the library would break any of these, instead of the benchmark
run failing later.  perfbench/ is only read here.
"""

import ast
import glob
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import fracflow as ff
from fracflow.config import (build_domain, build_field, build_grid_from, load_config,
                             serialize_config)
from fracflow.nonlocal_operator import OperatorContext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _shipped(*parts):
    paths = sorted(glob.glob(os.path.join(ROOT, *parts)))
    assert paths, "no config files under %s" % os.path.join(*parts[:-1])
    return paths


@pytest.fixture(scope="module")
def tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_configs_are_canonical():
    for path in _shipped("configs", "*.cfg"):
        with open(path) as fh:
            text = fh.read()
        assert serialize_config(load_config(path)) == text, path


def test_benchmark_configs_load():
    for path in _shipped("perfbench", "configs", "*.cfg"):
        load_config(path)


def _table(path):
    """(config, grid, context) built from a benchmark config."""
    cfg = load_config(path)
    domain = build_domain(cfg)
    grid = build_grid_from(cfg, domain)
    return cfg, grid, OperatorContext(grid, build_field(cfg, domain))


def test_benchmark_tables_fold_the_collar():
    # the workloads' speed rests on the exterior fold: constant p keeps one
    # exterior column, and the variable p of flow-imex-variable is even in
    # y on a symmetric collar, so mirror collar cells share a column
    constant = 0
    for path in _shipped("perfbench", "configs", "*.cfg"):
        cfg, grid, ctx = _table(path)
        if cfg.exponents.p.kind == "constant":
            assert ctx.row_w.shape == (grid.n, grid.n + 1), path
            constant += 1
    assert constant >= 2
    _, grid, ctx = _table(os.path.join(ROOT, "perfbench", "configs", "flow-imex-variable.cfg"))
    assert ctx.row_w.shape[1] < grid.n_total


def test_traced_names_resolve(tracer):
    for meth in tracer.SWEEPS:
        assert meth in OperatorContext.__dict__, meth
    for modname, attr in tracer.FUNCTIONS:
        module = importlib.import_module("fracflow." + modname)
        assert callable(getattr(module, attr, None)), (modname, attr)


def test_trace_sees_the_imex_inner_solve(tracer, ctx16_var, grid16):
    # the trace counts the sweeps step_imex makes itself as its inner solve
    state = ff.make_state(ff.standard_bump(grid16).scaled(0.5), ctx16_var)
    trace = tracer.Tracer()
    with trace.installed():
        ff.step_imex(state, 5e-2, ctx16_var)
    assert trace.layer_metrics(0.0)["evolution.imex_inner_per_step"] >= 2


def test_trace_counts_root_find_evaluations(tracer, ctx16, grid16):
    # modular.*.iters_per_call reads ModularReport.bisection_iterations
    u = ff.standard_bump(grid16)
    trace = tracer.Tracer()
    with trace.installed():
        ff.luxemburg_norm(u, 3.0)
        ff.gagliardo_seminorm(u, ctx16)
    metrics = trace.layer_metrics(0.0)
    for name in ("modular.luxemburg_norm", "modular.gagliardo_seminorm"):
        assert metrics[name + ".iters_per_call"] >= 1, name


def _setup_snippet():
    """perfbench/run.py's SETUP_SNIPPET, read without importing run.py."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SETUP_SNIPPET" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no SETUP_SNIPPET")


def test_setup_snippet_runs_on_benchmark_configs():
    snippet = _setup_snippet()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for path in _shipped("perfbench", "configs", "*.cfg"):
        proc = subprocess.run(
            [sys.executable, "-c", snippet, path],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, (path, proc.stderr)
