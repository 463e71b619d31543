import ast
import inspect
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fracflow as ff
from fracflow import scenarios
from fracflow.cli import main
from fracflow.config import (
    build_domain,
    build_field,
    build_grid_from,
    build_probe,
    default_config,
    load_config,
    parse_config,
    serialize_config,
)
from fracflow.errors import AuditFailed, ConfigError
from fracflow.evolution import Sample
from fracflow.modular import exponent_values

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def test_config_round_trip():
    cfg = default_config("well")
    cfg.exponents.p.kind = "affine-radial"
    cfg.exponents.p.a = 2.0
    cfg.exponents.p.b = 0.02
    cfg.seed = 77
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("exponents.s = 0.4\nnot.a.key = 1\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("exponents.s = 0.4\nexponents.s = 0.3\n")


def test_parse_rejects_missing_s():
    with pytest.raises(ConfigError, match="exponents.s"):
        parse_config("grid.n = 16\n")


def test_parse_accepts_comments_and_blanks():
    cfg = parse_config("# a comment\n\nexponents.s = 0.4  # trailing\nseed = 3\n")
    assert cfg.exponents.s == 0.4 and cfg.seed == 3


def test_parse_bad_value():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("exponents.s = fast\n")


@pytest.mark.parametrize("key, raw", [
    ("step.t_final", "nan"),
    ("step.blowup_cap", "nan"),
    ("step.energy_increase_tol", "nan"),
    ("step.inner_tol", "nan"),
    ("initial.amplitude", "nan"),
    ("initial.factor", "nan"),
    ("step.t_final", "inf"),
])
def test_non_finite_float_is_a_config_error(key, raw, tmp_path, capsys):
    # a nan t_final would run to max_steps, and a nan
    # energy_increase_tol would reject every step
    bad = tmp_path / "bad.cfg"
    bad.write_text("exponents.s = 0.4\n%s = %s\n" % (key, raw))
    rc = main(["well", "--config", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "config error: cannot parse float value for %s: %r\n" % (key, raw)
    assert not (tmp_path / "out").exists()


def _write_config(path, cfg, overrides):
    for key, val in overrides.items():
        parts = key.split(".")
        obj = cfg
        for p in parts[:-1]:
            obj = getattr(obj, p)
        setattr(obj, parts[-1], val)
    path.write_text(serialize_config(cfg))
    return cfg


def _write_fast_config(path, scenario, **overrides):
    cfg = default_config(scenario)
    cfg.grid.n = 16
    cfg.grid.m = 16
    cfg.geometry.n_starts = 2
    cfg.geometry.iters = 60
    cfg.step.t_final = 0.05
    cfg.validation.resolution = 33
    return _write_config(path, cfg, overrides)


def test_validate_scenario_exit_zero(tmp_path, capsys):
    rc = main(["validate", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "assumptions: PASS" in out
    assert "p- = 2.0" in out and "q+ = 3.0" in out
    assert "p*_s = 10.0" in out
    assert (tmp_path / "summary.txt").exists()


def test_bad_step_value_fails_at_parse_time(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the depth search ran on a rejected config")

    monkeypatch.setattr(scenarios, "well_depth", no_search)
    bad = tmp_path / "bad.cfg"
    for section, lines, reason in (
        ("step", "step.scheme = bogus", "scheme must be 'explicit' or 'imex'"),
        ("step", "step.t_final = 0", "t_final must be positive"),
        # the Luxemburg norm of a run's samples needs a probe exponent above 1
        ("probe", "probe.value = 1.0", "its minimum there is 1.0"),
        ("probe", "probe.kind = bump\nprobe.b = -2.0", "its minimum there is 0.0"),
        ("geometry", "geometry.tol = 0.0", "tol must be positive"),
        ("geometry", "geometry.tol = -1e-9", "tol must be positive"),
    ):
        bad.write_text("exponents.s = 0.4\n%s\n" % lines)
        rc = main(["well", "--config", str(bad), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: %s: " % section) and reason in err, err
    assert not (tmp_path / "out").exists()


def test_malformed_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.n = 16\n")  # missing exponents.s
    rc = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_assumption_violation_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("exponents.s = 0.6\n")  # s p+ = 1.2 >= N
    rc = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "assumptions: FAIL (a4: " in capsys.readouterr().out
    assert (tmp_path / "summary.txt").exists()


def test_assumption_violation_is_a_verdict_in_every_scenario(tmp_path, capsys, monkeypatch):
    # geometry validates the field when it builds its context, before the
    # embedding-constant search
    monkeypatch.setattr(scenarios, "estimate_embedding_constant", _no_search)
    bad = tmp_path / "bad.cfg"
    bad.write_text("exponents.s = 0.6\n")
    rc = main(["geometry", "--config", str(bad), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "assumptions: FAIL (a4: " in out
    assert "scenario geometry: FAIL" in out
    assert (tmp_path / "out" / "summary.txt").read_text() == out


def test_nehari_sweep_scenario(tmp_path, capsys):
    cfgpath = tmp_path / "sweep.cfg"
    _write_fast_config(cfgpath, "nehari-sweep")
    rc = main(["nehari-sweep", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "closed_form_match: PASS" in out
    assert "projection_residuals: PASS" in out
    csv = (tmp_path / "out" / "nehari_sweep.csv").read_text().splitlines()
    assert csv[0] == "label,lambda_hat,closed_form,abs_err,nehari_residual"
    assert len(csv) == 11  # header + bump + sine + 8 random


def test_nehari_sweep_projection_residuals_can_fail(tmp_path, capsys, monkeypatch):
    cfgpath = tmp_path / "sweep.cfg"
    _write_fast_config(cfgpath, "nehari-sweep")
    true_lambda = scenarios.nehari_lambda
    monkeypatch.setattr(scenarios, "nehari_lambda", lambda u, ctx, tol: 1.01 * true_lambda(u, ctx, tol))
    rc = main(["nehari-sweep", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "projection_residuals: FAIL (worst residual" in out


def test_tolerance_below_the_projections_reach_is_a_failed_verdict(tmp_path, capsys):
    # a relative residual of 1e-17 is below what the projection can reach
    # (the shipped sweep's projections miss it by up to 8.9e-16): the sweep's
    # own residual check fails, and a depth search ends its scenario with
    # the verdict naming the error, each with a summary
    cfgpath = tmp_path / "tol.cfg"
    for scenario, verdict in (
        ("nehari-sweep", "projection_residuals: FAIL (worst residual "),
        ("geometry", "completed: FAIL (ProjectionFailed: manifold projection relative residual "),
        ("well", "completed: FAIL (ProjectionFailed: manifold projection relative residual "),
    ):
        if scenario == "nehari-sweep":
            with open(os.path.join(CONFIGS, "nehari-sweep.cfg")) as fh:
                cfgpath.write_text(fh.read().replace("geometry.tol = 1e-09", "geometry.tol = 1e-17"))
        else:
            _write_fast_config(cfgpath, scenario, **{"geometry.tol": 1e-17})
        out_dir = tmp_path / scenario
        rc = main([scenario, "--config", str(cfgpath), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.err == ""
        assert verdict in captured.out and "scenario %s: FAIL" % scenario in captured.out
        assert (out_dir / "summary.txt").read_text() == captured.out


def test_overflowing_start_is_a_failed_verdict(tmp_path, capsys):
    # |u|^q overflows at the initial state: make_state refuses it as
    # NonFinite before the first sample's Luxemburg norm
    cfgpath = tmp_path / "huge.cfg"
    for scenario in ("well", "blowup"):
        _write_fast_config(cfgpath, scenario,
                           **{"initial.kind": "bump", "initial.amplitude": 1e200})
        out_dir = tmp_path / scenario
        rc = main([scenario, "--config", str(cfgpath), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.err == ""
        assert captured.out.endswith(
            "completed: FAIL (NonFinite: energy overflowed at t = 0.0)\n"
            "scenario %s: FAIL\n" % scenario)
        assert (out_dir / "summary.txt").read_text() == captured.out


def test_overflowing_initial_factor_is_a_failed_verdict(tmp_path, capsys):
    # the scaled minimizer overflows: the grid function refuses it as
    # NonFinite, with no overflow warning on stderr first
    with open(os.path.join(CONFIGS, "well.cfg")) as fh:
        text, n = re.subn(r"^initial\.factor = .*$", "initial.factor = 1e308", fh.read(),
                          flags=re.M)
    assert n == 1
    cfgpath = tmp_path / "huge.cfg"
    cfgpath.write_text(text)
    rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    assert captured.out.endswith(
        "completed: FAIL (NonFinite: grid function values must be finite)\n"
        "scenario well: FAIL\n")


def test_unformable_probe_norm_is_a_failed_verdict(tmp_path, capsys):
    # |u|^8 of the start overflows, but the probe-space norm builds its side
    # from the state scaled by a power of two, so every sample's norm forms:
    # the run completes, and fails only the verdicts of a start that lies
    # outside the well
    with open(os.path.join(CONFIGS, "well.cfg")) as fh:
        text = fh.read()
    for key, val in (("probe.value", "8.0"), ("initial.kind", "bump"),
                     ("initial.amplitude", "1e50")):
        text, n = re.subn(r"^%s = .*$" % re.escape(key), "%s = %s" % (key, val), text,
                          flags=re.M)
        assert n == 1
    cfgpath = tmp_path / "probe.cfg"
    cfgpath.write_text(text)
    out_dir = tmp_path / "out"
    rc = main(["well", "--config", str(cfgpath), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "termination: BlowUpCapHit"
    assert lines[1].startswith("invariance: FAIL") and lines[2].startswith("decay: FAIL")
    assert lines[-1] == "scenario well: FAIL"
    assert (out_dir / "summary.txt").read_text() == captured.out
    bump = ff.standard_bump(build_grid_from(load_config(str(cfgpath))))
    first = (out_dir / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert float(first[6]) == pytest.approx(1e50 * ff.luxemburg_norm(bump, 8.0).luxemburg_norm,
                                            rel=1e-9)


@pytest.mark.parametrize("name", sorted(f[:-4] for f in os.listdir(CONFIGS) if f.endswith(".cfg")))
def test_shipped_config_passes_every_verdict(name, tmp_path, capsys):
    path = os.path.join(CONFIGS, name + ".cfg")
    scenario = load_config(path).scenario
    rc = main([scenario, "--config", path, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    verdicts = [ln for ln in lines if ln.endswith(": PASS") or ": FAIL" in ln]
    assert rc == 0 and captured.err == ""
    assert verdicts and all(v.endswith(": PASS") for v in verdicts), captured.out
    assert lines[-1] == "scenario %s: PASS" % scenario
    assert (tmp_path / "summary.txt").read_text() == captured.out
    if scenario == "geometry":
        _assert_depth_is_the_embedding_formula(load_config(path), tmp_path)


def _assert_depth_is_the_embedding_formula(cfg, out_dir):
    """For constant p < q the two depth searches agree: depth_hat is
    (1/p - 1/q) lambda_hat^(pq/(q - p)) to a relative 1e-9."""
    p, q = cfg.exponents.p.value, cfg.exponents.q.value
    assert cfg.exponents.p.kind == cfg.exponents.q.kind == "constant"
    text = (out_dir / "geometry_summary.txt").read_text()
    lam, depth = (float(re.search(r"\b%s\s*=\s*(\S+)" % key, text).group(1))
                  for key in ("lambda_hat", "depth_hat"))
    formula = (1.0 / p - 1.0 / q) * lam ** (p * q / (q - p))
    assert abs(depth - formula) <= 1e-9 * depth, (depth, formula)


def test_well_scenario_verdicts_and_row_count(tmp_path, capsys):
    cfgpath = tmp_path / "well.cfg"
    cfg = _write_fast_config(cfgpath, "well", **{"step.t_final": 2.0})
    rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    for verdict in ("invariance: PASS", "decay: PASS"):
        assert verdict in out
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,dt,E,I,phi,l2,lux_r,modular_sp,modular_q,well_class,residual"
    accepted_steps = round(cfg.step.t_final / cfg.step.dt_init)
    assert len(lines) == 1 + accepted_steps + 1  # header + t=0 + accepted


def _no_search(*args, **kwargs):
    raise AssertionError("a depth search ran on a rejected config")


def test_well_scenario_from_file(tmp_path, capsys):
    cfgpath = tmp_path / "well.cfg"
    state = tmp_path / "u0.csv"
    cfg = _write_fast_config(cfgpath, "well", **{"step.t_final": 2.0, "initial.kind": "file",
                                                 "initial.path": str(state)})
    grid = build_grid_from(cfg)
    ff.save_csv(ff.standard_bump(grid).scaled(0.5), state)
    rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0, out
    for verdict in ("invariance: PASS", "decay: PASS"):
        assert verdict in out
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    ctx = ff.build_context(grid, build_field(cfg, build_domain(cfg)))
    assert float(rows[1].split(",")[2]) == ff.energy(ff.load_csv(grid, state), ctx).energy


def test_initial_file_off_the_grid_is_a_config_error(tmp_path, capsys):
    # a file for another grid, one in the older format with a region
    # column and collar rows, and one with a nan value are refused without
    # a traceback
    cfgpath = tmp_path / "well.cfg"
    cfg = _write_fast_config(cfgpath, "well")
    grid = build_grid_from(cfg)
    other = tmp_path / "other.csv"
    ff.save_csv(ff.GridFunction.zeros(build_grid_from(cfg, n=2 * cfg.grid.n)), other)
    collar = tmp_path / "collar.csv"
    collar.write_text("center,width,value,region\n" + "".join(
        "%r,%r,0.5,interior\n" % (x, w)
        for x, w in zip(grid.interior_centers, grid.interior_widths)) + "9.0,1.0,0.0,exterior\n")
    nan = tmp_path / "nan.csv"
    ff.save_csv(ff.standard_bump(grid), nan)
    lines = nan.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    nan.write_text("\n".join(lines) + "\n")
    for path, reason in ((other, "file has 32 cells, grid has 16"),
                         (collar, "unrecognized grid-function CSV header"),
                         (nan, "non-finite number in %s" % nan)):
        _write_fast_config(cfgpath, "well", **{"initial.kind": "file", "initial.path": str(path)})
        rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: initial: ") and reason in err, err
        assert not (tmp_path / "out").exists()


def test_mismatched_initial_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # the shipped well config on 32 cells with a 16-cell file: parsing
    # refuses it, before any context, search or output directory
    monkeypatch.setattr(scenarios, "well_depth", _no_search)
    state = tmp_path / "u16.csv"
    ff.save_csv(ff.standard_bump(ff.Grid(ff.Domain(-1.0, 1.0, 8.0), 16, 128)), state)
    cfgpath = tmp_path / "well.cfg"
    with open(os.path.join(CONFIGS, "well.cfg")) as fh:
        shipped = fh.read()
    cfgpath.write_text(shipped.replace(
        "initial.kind = scaled-nehari-minimizer",
        "initial.kind = file\ninitial.path = %s" % state))
    out = tmp_path / "out"
    rc = main(["well", "--config", str(cfgpath), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "config error: initial: file has 16 cells, grid has 32\n"
    assert not out.exists()


def test_convergence_refuses_initial_file_before_any_work(tmp_path, capsys, monkeypatch):
    # the file matches grid.n, but the study also runs on 2n cells
    monkeypatch.setattr(scenarios, "well_depth", _no_search)
    cfgpath = tmp_path / "conv.cfg"
    cfg = _write_fast_config(cfgpath, "convergence")
    state = tmp_path / "u16.csv"
    ff.save_csv(ff.standard_bump(build_grid_from(cfg)), state)
    _write_fast_config(cfgpath, "convergence",
                       **{"initial.kind": "file", "initial.path": str(state)})
    out = tmp_path / "out"
    rc = main(["convergence", "--config", str(cfgpath), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: initial: ") and "convergence" in err, err
    assert not out.exists()


def test_convergence_grid_over_cap_is_a_config_error(tmp_path, capsys, monkeypatch):
    # (n, m) = (256, 4000) passes the table cap, the scenario's 2n context
    # does not: it fails before the first search
    monkeypatch.setattr(scenarios, "well_depth", _no_search)
    monkeypatch.setattr(scenarios, "estimate_embedding_constant", _no_search)
    bad = tmp_path / "big.cfg"
    bad.write_text("exponents.s = 0.4\ngrid.n = 256\ngrid.m = 4000\n")
    rc = main(["convergence", "--config", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: pair table of 512 x 8512") and "Traceback" not in err
    assert not (tmp_path / "out" / "summary.txt").exists()


def test_well_scenario_failure_exit_one(tmp_path, capsys):
    # a run too short to decay must fail the decay verdict
    cfgpath = tmp_path / "short.cfg"
    _write_fast_config(cfgpath, "well", **{"step.t_final": 0.01})
    rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "decay: FAIL" in out


def test_well_scenario_with_no_steps_fails_decay(tmp_path, capsys):
    # a record of the initial sample alone has not decayed at all
    cfgpath = tmp_path / "still.cfg"
    _write_fast_config(cfgpath, "well", **{"step.max_steps": 0})
    rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "termination: MaxSteps" in out
    assert "decay: FAIL (final/initial l2 = 1.0)" in out
    assert (tmp_path / "out" / "summary.txt").read_text().splitlines() == out.splitlines()


def test_blowup_scenario_with_no_steps_fails_phi_increasing(tmp_path, capsys):
    # a record of the initial sample alone has no increment to check
    cfgpath = tmp_path / "still.cfg"
    _write_fast_config(cfgpath, "blowup", **{"initial.factor": 2.0, "step.max_steps": 0})
    rc = main(["blowup", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "termination: MaxSteps" in out
    assert "phi_increasing: FAIL (no steps)" in out.splitlines()
    assert "inequality_audit: FAIL (not run: no accepted steps)" in out.splitlines()


@pytest.mark.parametrize("key", ["initial.factor", "initial.amplitude"])
def test_well_scenario_from_zero_state_decays_without_warning(key, tmp_path, capsys):
    # the suite turns RuntimeWarnings into errors, so a 0/0 l2 ratio fails here
    cfgpath = tmp_path / "zero.cfg"
    overrides = {key: 0.0}
    if key == "initial.amplitude":
        overrides["initial.kind"] = "bump"
    _write_fast_config(cfgpath, "well", **overrides)
    rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "decay: PASS" in out


def test_blowup_scenario(tmp_path, capsys):
    cfgpath = tmp_path / "blow.cfg"
    _write_fast_config(cfgpath, "blowup", **{"initial.factor": 2.0, "step.t_final": 5.0})
    rc = main(["blowup", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    for verdict in (
        "cap_hit: PASS",
        "phi_increasing: PASS",
        "inequality_audit: PASS",
        "exterior_invariance: PASS",
    ):
        assert verdict in out
    assert (tmp_path / "out" / "audit.csv").exists()
    # the audit's extrapolation, printed just before its rate constant
    lines = out.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("t_max_extrapolated = "))
    assert lines[k + 1].startswith("measured rate constant = ")


def test_blowup_scenario_failed_audit_prints_no_extrapolation(tmp_path, capsys, monkeypatch):
    def failing_audit(record, summary):
        raise AuditFailed("forced failure")

    monkeypatch.setattr(scenarios, "blowup_inequality_audit", failing_audit)
    cfgpath = tmp_path / "blow.cfg"
    _write_fast_config(cfgpath, "blowup", **{"initial.factor": 2.0, "step.t_final": 5.0})
    rc = main(["blowup", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "cap_hit: PASS" in out
    assert "inequality_audit: FAIL (forced failure)" in out
    assert "t_max_extrapolated" not in out
    assert "measured rate constant" not in out
    assert not (tmp_path / "out" / "audit.csv").exists()


def test_blowup_scenario_inside_well_skips_audit(tmp_path, capsys):
    # E(u0) >= 0: the audit is not run, and the scenario still writes its summary
    cfgpath = tmp_path / "blow.cfg"
    _write_fast_config(cfgpath, "blowup", **{"initial.factor": 0.5})
    rc = main(["blowup", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    out = captured.out
    assert rc == 1 and captured.err == ""
    assert "inequality_audit: FAIL (not run: E(u0) >= 0)" in out
    assert "exterior_invariance: FAIL (classes seen: ['InWell'])" in out.splitlines()
    assert "inequality_audit: FAIL (not run: E(u0) >= 0)" in (
        tmp_path / "out" / "summary.txt"
    ).read_text()
    assert not (tmp_path / "out" / "audit.csv").exists()


def test_failed_audit_removes_an_earlier_audit_csv(tmp_path, capsys):
    # a failed audit in the summary is not left beside an earlier run's audit
    cfgpath = tmp_path / "blow.cfg"
    out_dir = tmp_path / "out"
    _write_fast_config(cfgpath, "blowup", **{"initial.factor": 2.0, "step.t_final": 5.0})
    assert main(["blowup", "--config", str(cfgpath), "--out", str(out_dir)]) == 0
    assert (out_dir / "audit.csv").exists()
    _write_fast_config(cfgpath, "blowup", **{"initial.factor": 0.5})
    assert main(["blowup", "--config", str(cfgpath), "--out", str(out_dir)]) == 1
    assert "inequality_audit: FAIL (not run: E(u0) >= 0)" in (
        out_dir / "summary.txt").read_text()
    assert not (out_dir / "audit.csv").exists()


def _thousandfold_embedding_constant(*args, **kwargs):
    return 1e3 * ff.estimate_embedding_constant(*args, **kwargs)


def _nehari_lambda_one_percent_long(u, ctx, tol):
    return 1.01 * ff.nehari_lambda(u, ctx, tol)


#: verdict name -> (config, overrides, monkeypatch of ``scenarios``) under
#: which the verdict prints FAIL.  A config ending in .cfg is the shipped
#: one, any other is the scenario's fast config.  No config fails
#: depth_lower_bound or closed_form_match: those fail under a monkeypatch
#: only
VERDICT_CENSUS = {
    "assumptions": ("validate", {"exponents.s": 0.6}, None),
    "completed": ("geometry", {"geometry.tol": 1e-17}, None),
    "depth_lower_bound": ("geometry", {},
                          ("estimate_embedding_constant", _thousandfold_embedding_constant)),
    "invariance": ("well", {"initial.factor": 2.0}, None),
    "decay": ("well", {"step.t_final": 0.01}, None),
    "cap_hit": ("blowup", {"initial.factor": 0.5}, None),
    "phi_increasing": ("blowup", {"initial.factor": 0.5}, None),
    "inequality_audit": ("blowup", {"initial.factor": 0.5}, None),
    "exterior_invariance": ("blowup", {"initial.factor": 0.5}, None),
    "closed_form_match": ("nehari-sweep", {},
                          ("nehari_lambda", _nehari_lambda_one_percent_long)),
    "projection_residuals": ("nehari-sweep.cfg", {"geometry.tol": 1e-17}, None),
    # past the explicit step's bound, the residuals do not fall with dt
    "residual_order": ("convergence.cfg", {"step.dt_init": 0.1, "step.dt_max": 0.1,
                                           "geometry.iters": 20}, None),
}


def test_verdict_census_covers_every_verdict():
    # every literal name passed to v.check in the scenarios has a failing case
    tree = ast.parse(inspect.getsource(scenarios))
    names = {node.args[0].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "check" and isinstance(node.args[0], ast.Constant)}
    assert names == set(VERDICT_CENSUS)


@pytest.mark.parametrize("name", sorted(VERDICT_CENSUS))
def test_every_verdict_can_fail(name, tmp_path, capsys, monkeypatch):
    config, overrides, patch = VERDICT_CENSUS[name]
    cfgpath = tmp_path / "census.cfg"
    if config.endswith(".cfg"):
        _write_config(cfgpath, load_config(os.path.join(CONFIGS, config)), overrides)
    else:
        _write_fast_config(cfgpath, config, **overrides)
    if patch is not None:
        monkeypatch.setattr(scenarios, *patch)
    scenario = load_config(str(cfgpath)).scenario
    rc = main([scenario, "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert any(ln.startswith(name + ": FAIL") for ln in lines), lines


def test_out_dir_precedence(tmp_path, capsys):
    cfg_dir = tmp_path / "from-config"
    flag_dir = tmp_path / "from-flag"
    cfgpath = tmp_path / "validate.cfg"
    _write_fast_config(cfgpath, "validate", out=str(cfg_dir))
    assert main(["validate", "--config", str(cfgpath), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "summary.txt").exists()
    assert not cfg_dir.exists()
    assert main(["validate", "--config", str(cfgpath)]) == 0
    capsys.readouterr()
    assert (cfg_dir / "summary.txt").exists()


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfgpath = tmp_path / "sweep.cfg"
    _write_fast_config(cfgpath, "nehari-sweep", **{"seed": 5})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["nehari-sweep", "--config", str(cfgpath), "--out", str(out_a)]) == 0
    assert main(
        ["nehari-sweep", "--config", str(cfgpath), "--out", str(out_b), "--seed", "5"]
    ) == 0
    capsys.readouterr()
    assert (out_a / "nehari_sweep.csv").read_bytes() == (out_b / "nehari_sweep.csv").read_bytes()


def test_scenario_determinism_byte_identical(tmp_path, capsys):
    cfgpath = tmp_path / "well.cfg"
    _write_fast_config(cfgpath, "well", **{"step.t_final": 0.5})
    outs = []
    for name in ("r1", "r2"):
        rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / name)])
        capsys.readouterr()
        outs.append((tmp_path / name / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_console_entry_point_runs(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "fracflow", "validate", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0
    assert "scenario validate: PASS" in proc.stdout
    assert (tmp_path / "summary.txt").exists()


def test_import_loads_no_scipy():
    # scipy.optimize alone once made up most of the import time of the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(ff.__file__)))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import fracflow, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _imported(argv, cwd):
    """Modules a fresh ``python -X importtime`` process imports, and its
    stdout; a failed verdict (exit 1) still counts as a run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ff.__file__)))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime"] + argv,
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}, proc.stdout


@pytest.mark.parametrize("scenario, n_starts", [
    (None, None), ("well", 1), ("well", 2), ("well", 3), ("geometry", 3), ("nehari-sweep", 2),
], ids=["import", "one-start", "two-starts", "three-starts", "geometry", "nehari-sweep"])
def test_no_run_imports_numpy_random(scenario, n_starts, tmp_path):
    # random starts come from the stdlib generator, which numpy's own import
    # loads; importing numpy.random costs a fresh process about 5 MB.  The
    # well run draws no start whatever geometry.n_starts reads
    if scenario is None:
        modules, _ = _imported(["-c", "import fracflow"], tmp_path)
    else:
        cfgpath = tmp_path / "run.cfg"
        _write_fast_config(cfgpath, scenario, **{"geometry.n_starts": n_starts})
        modules, out = _imported(["-m", "fracflow", scenario, "--config", str(cfgpath),
                                  "--out", "out"], tmp_path)
        assert "scenario %s: " % scenario in out
    assert {"fracflow", "numpy", "random"} <= modules
    assert "numpy.random" not in modules


#: prints OpenBLAS's thread count after ``import fracflow`` (None when no
#: OpenBLAS symbol is found next to numpy), and whether the import left
#: os.environ as it was
_BLAS_THREADS = """\
import ctypes, glob, os
before = dict(os.environ)
import fracflow
import numpy
unchanged = dict(os.environ) == before
threads = None
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(threads, unchanged)
"""


@pytest.mark.parametrize("env, threads", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "2"}, 2),
], ids=["unset", "openblas-set", "omp-set"])
def test_import_runs_openblas_on_one_thread_unless_the_user_set_a_count(env, threads):
    # in a fresh process, since this suite imports numpy before fracflow;
    # OpenBLAS caps a requested count at the usable CPUs
    src = os.path.dirname(os.path.dirname(os.path.abspath(ff.__file__)))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS],
        capture_output=True,
        text=True,
        env={**base, **env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0, proc.stderr
    count, unchanged = proc.stdout.split()
    if count == "None":
        pytest.skip("no OpenBLAS thread-count symbol found next to numpy")
    assert int(count) == min(threads, len(os.sched_getaffinity(0)))
    assert unchanged == "True"


def test_header_only_csv_for_empty_trajectory(tmp_path):
    rec = ff.TrajectoryRecord(samples=[], termination=ff.REACHED_FINAL_TIME)
    path = tmp_path / "empty.csv"
    ff.trajectory_to_csv(rec, path)
    assert path.read_text() == "t,dt,E,I,phi,l2,lux_r,modular_sp,modular_q,well_class,residual\n"


def test_table_writers_golden_text(tmp_path):
    def sample(**kw):
        base = dict(well_class=ff.IN_EXTERIOR, grad_l2=1.0)
        return Sample(**base, **kw)

    rec = ff.TrajectoryRecord(
        samples=[
            sample(t=0.0, dt=0.0, energy=-1.5, nehari=0.25, phi=0.1, l2=1.0 / 3.0,
                   lux_r=2.0, modular_sp=1e-20, modular_q=123456789.0, residual=0.0),
            sample(t=0.001, dt=0.001, energy=-2.0, nehari=-3e-5, phi=1.25, l2=2.0**0.5,
                   lux_r=0.7, modular_sp=5.5, modular_q=6.0, residual=4.4e-17),
        ],
        termination=ff.BLOWUP_CAP_HIT,
    )
    ff.trajectory_to_csv(rec, tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_text() == (
        "t,dt,E,I,phi,l2,lux_r,modular_sp,modular_q,well_class,residual\n"
        "0.0,0.0,-1.5,0.25,0.1,0.3333333333333333,2.0,1e-20,123456789.0,InExterior,0.0\n"
        "0.001,0.001,-2.0,-3e-05,1.25,1.4142135623730951,0.7,5.5,6.0,InExterior,4.4e-17\n"
    )
    audit = ff.AuditResult(
        t=np.array([0.0, 0.001]), dt=np.array([0.001, 0.002]), phi=np.array([0.5, 1.5]),
        phi_prime=np.array([2.5, -0.1]), identity_gap=np.array([1e-12, 0.0]),
        bound_margin=np.array([0.75, 1.0 / 7.0]), ratio=np.array([np.nan, 0.3]),
        tol=np.array([5e-3, 1e6]),
        rate_constant=0.3,
        first_t_phi_above_one=0.001,
    )
    ff.report.audit_to_csv(audit, tmp_path / "audit.csv")
    assert (tmp_path / "audit.csv").read_text() == (
        "t,dt,phi,phi_prime,identity_gap,bound_margin,ratio,tol\n"
        "0.0,0.001,0.5,2.5,1e-12,0.75,nan,0.005\n"
        "0.001,0.002,1.5,-0.1,0.0,0.14285714285714285,0.3,1000000.0\n"
    )


def test_geometry_report_writes_files(tmp_path, ctx16):
    geom = ff.well_depth(ctx16, iters=50)
    lam_hat = ff.estimate_embedding_constant(ctx16, n_starts=2, iters=50, rng=0)
    r_hat, lower_bound = ff.depth_lower_bound(lam_hat, ctx16.summary)
    text = ff.report.geometry_report(geom, lam_hat, r_hat, lower_bound, str(tmp_path))
    assert (tmp_path / "geometry_summary.txt").read_text() == text + "\n"
    assert (tmp_path / "minimizer.csv").exists()


# canonical text of default_config(), unchanged since the step section
# became a StepControl and the exponent shapes one ShapeConfig
DEFAULT_CONFIG_TEXT = """\
scenario = validate
seed = 0
out = fracflow-out
domain.a = -1.0
domain.b = 1.0
domain.exterior_radius = 8.0
grid.n = 32
grid.m = 128
exponents.s = 0.4
exponents.p.kind = constant
exponents.p.value = 2.0
exponents.q.kind = constant
exponents.q.value = 3.0
probe.kind = constant
probe.value = 2.0
initial.kind = scaled-nehari-minimizer
initial.factor = 0.5
initial.amplitude = 1.0
step.scheme = explicit
step.dt_init = 0.001
step.dt_min = 1e-12
step.dt_max = 0.01
step.t_final = 1.0
step.energy_increase_tol = 1e-10
step.blowup_cap = 1000000.0
step.max_steps = 200000
step.inner_tol = 1e-08
step.inner_max = 300
geometry.n_starts = 4
geometry.iters = 400
geometry.tol = 1e-09
validation.resolution = 65
"""


def test_default_config_text_is_canonical():
    assert serialize_config(default_config()) == DEFAULT_CONFIG_TEXT
    assert parse_config(DEFAULT_CONFIG_TEXT) == default_config()


def test_build_probe_shapes(grid16):
    x = grid16.interior_centers
    cfg = default_config("well")
    cfg.probe.value = 2.5
    probe = build_probe(cfg)
    np.testing.assert_array_equal(exponent_values(probe, x), np.full(grid16.n, 2.5))
    cfg.probe.kind = "bump"
    cfg.probe.a, cfg.probe.b = 2.0, 1.0
    probe = build_probe(cfg)
    np.testing.assert_array_equal(exponent_values(probe, x), 2.0 + 1.0 * x**2)
    # q takes the same shape from the same builder
    cfg.exponents.q.kind, cfg.exponents.q.a, cfg.exponents.q.b = "bump", 2.0, 1.0
    np.testing.assert_array_equal(build_field(cfg).q(x), exponent_values(probe, x))
    # a and b default to value and 0, as for q
    cfg.probe.a = cfg.probe.b = None
    np.testing.assert_array_equal(exponent_values(build_probe(cfg), x), np.full(grid16.n, 2.5))


def test_unknown_one_point_kind_raises_config_error():
    cfg = default_config("well")
    cfg.probe.kind = "ramp"
    with pytest.raises(ConfigError, match="ramp"):
        build_probe(cfg)
    cfg = default_config("well")
    cfg.exponents.q.kind = "bump-q"
    with pytest.raises(ConfigError, match="bump-q"):
        build_field(cfg)


@pytest.mark.parametrize("shape", ["exponents.p", "exponents.q", "probe"])
@pytest.mark.parametrize("coef", ["a", "b"])
def test_constant_shape_rejects_a_and_b(shape, coef):
    # rejected by the builder, which parse_config runs on every parsed file
    with pytest.raises(ConfigError, match="constant"):
        parse_config("exponents.s = 0.4\n%s.kind = constant\n%s.%s = 0.02\n"
                     % (shape, shape, coef))
    cfg = default_config("well")
    _, _, name = shape.rpartition(".")
    setattr(getattr(cfg.exponents, name) if shape != "probe" else cfg.probe, coef, 0.02)
    with pytest.raises(ConfigError, match="constant"):
        build_probe(cfg) if shape == "probe" else build_field(cfg)


@pytest.mark.parametrize("lines, section", [
    ("domain.b = -1.0", "domain"),
    ("domain.exterior_radius = -1", "domain"),
    ("grid.n = 2", "grid"),
    ("grid.m = 0", "grid"),
    ("exponents.s = 1.5", "exponents"),
    ("validation.resolution = 1", "validation"),
    ("geometry.n_starts = 0", "geometry"),
    ("geometry.iters = -3", "geometry"),
    ("grid.n = 4096\ngrid.m = 1024", "grid"),  # a pair table over MAX_TABLE_ENTRIES
    ("initial.kind = bogus", "initial"),
    ("initial.kind = file", "initial"),
    ("step.scheme = imex\nstep.inner_max = 0", "step"),
    ("step.max_steps = -5", "step"),
    ("seed = -1\ngeometry.n_starts = 3", "seed"),
    ("geometry.n_starts = 3\n--seed -1", "seed"),
], ids=["b-not-above-a", "negative-radius", "n-below-4", "no-collar-cells", "s-above-1",
        "one-sample", "no-starts", "negative-iters", "table-over-cap", "unknown-initial-kind",
        "file-without-path", "no-inner-iterations", "negative-max-steps", "negative-seed",
        "negative-seed-flag"])
def test_bad_config_value_is_a_config_error(lines, section, tmp_path, capsys, monkeypatch):
    # a line that starts with "--" goes on the command line
    monkeypatch.setattr(scenarios, "well_depth", _no_search)
    monkeypatch.setattr(scenarios, "estimate_embedding_constant", _no_search)
    bad = tmp_path / "bad.cfg"
    flags = [f for line in lines.split("\n") if line.startswith("--") for f in line.split()]
    lines = "\n".join(line for line in lines.split("\n") if not line.startswith("--"))
    s_line = "" if lines.startswith("exponents.s") else "exponents.s = 0.4\n"
    bad.write_text("%s%s\n" % (s_line, lines))
    rc = main(["geometry", "--config", str(bad), "--out", str(tmp_path / "out")] + flags)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: %s: " % section) and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()
