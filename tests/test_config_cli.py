import os
import subprocess
import sys

import pytest

import fracflow as ff
from fracflow import scenarios
from fracflow.cli import main
from fracflow.config import default_config, parse_config, serialize_config
from fracflow.errors import ConfigError


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


def _write_fast_config(path, scenario, **overrides):
    cfg = default_config(scenario)
    cfg.grid.n = 16
    cfg.grid.m = 16
    cfg.geometry.n_starts = 2
    cfg.geometry.iters = 60
    cfg.step.t_final = 0.05
    cfg.validation.resolution = 33
    for key, val in overrides.items():
        parts = key.split(".")
        obj = cfg
        for p in parts[:-1]:
            obj = getattr(obj, p)
        setattr(obj, parts[-1], val)
    path.write_text(serialize_config(cfg))
    return cfg


def test_validate_scenario_exit_zero(tmp_path, capsys):
    rc = main(["validate", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "assumptions: PASS" in out
    assert "p- = 2.0" in out and "q+ = 3.0" in out
    assert "p*_s = 10.0" in out
    assert (tmp_path / "summary.txt").exists()


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
    assert "a4" in capsys.readouterr().err


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


def test_well_scenario_verdicts_and_row_count(tmp_path, capsys):
    cfgpath = tmp_path / "well.cfg"
    cfg = _write_fast_config(cfgpath, "well", **{"step.t_final": 2.0})
    rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    for verdict in ("invariance: PASS", "dissipativity: PASS", "decay: PASS"):
        assert verdict in out
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,dt,E,I,phi,l2,lux_r,modular_sp,modular_q,well_class,residual"
    accepted_steps = round(cfg.step.t_final / cfg.step.dt_init)
    assert len(lines) == 1 + accepted_steps + 1  # header + t=0 + accepted


def test_well_scenario_failure_exit_one(tmp_path, capsys):
    # a run too short to decay must fail the decay verdict
    cfgpath = tmp_path / "short.cfg"
    _write_fast_config(cfgpath, "well", **{"step.t_final": 0.01})
    rc = main(["well", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "decay: FAIL" in out


def test_blowup_scenario(tmp_path, capsys):
    cfgpath = tmp_path / "blow.cfg"
    _write_fast_config(cfgpath, "blowup", **{"initial.factor": 2.0, "step.t_final": 5.0})
    rc = main(["blowup", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    for verdict in (
        "negative_initial_energy: PASS",
        "cap_hit: PASS",
        "phi_increasing: PASS",
        "inequality_audit: PASS",
        "exterior_invariance: PASS",
    ):
        assert verdict in out
    assert (tmp_path / "out" / "audit.csv").exists()


@pytest.mark.filterwarnings("ignore:initial state is InWell")
def test_blowup_scenario_inside_well_skips_audit(tmp_path, capsys):
    # E(u0) >= 0: the audit is not run, and the scenario still writes its summary
    cfgpath = tmp_path / "blow.cfg"
    _write_fast_config(cfgpath, "blowup", **{"initial.factor": 0.5})
    rc = main(["blowup", "--config", str(cfgpath), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "inequality_audit: FAIL (not run: E(u0) >= 0)" in out
    assert "inequality_audit: FAIL (not run: E(u0) >= 0)" in (
        tmp_path / "out" / "summary.txt"
    ).read_text()
    assert not (tmp_path / "out" / "audit.csv").exists()


def test_out_dir_precedence(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("FRACFLOW_OUT", str(env_dir))
    rc = main(["validate", "--out", str(flag_dir)])
    capsys.readouterr()
    assert rc == 0
    assert (env_dir / "summary.txt").exists()
    assert not flag_dir.exists()


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
    proc = subprocess.run(
        [sys.executable, "-m", "fracflow", "validate"],
        capture_output=True,
        text=True,
        env={**os.environ, "FRACFLOW_OUT": str(tmp_path)},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0
    assert "scenario validate: PASS" in proc.stdout
    assert (tmp_path / "summary.txt").exists()


def test_header_only_csv_for_empty_trajectory(tmp_path):
    rec = ff.TrajectoryRecord(samples=[], termination=ff.REACHED_FINAL_TIME)
    path = tmp_path / "empty.csv"
    ff.trajectory_to_csv(rec, path)
    assert path.read_text() == "t,dt,E,I,phi,l2,lux_r,modular_sp,modular_q,well_class,residual\n"


def test_geometry_report_writes_files(tmp_path, ctx16):
    geom = ff.well_depth(ctx16, n_starts=2, iters=50, rng=0)
    text = ff.report.geometry_report(geom, str(tmp_path))
    assert (tmp_path / "geometry_summary.txt").read_text() == text + "\n"
    assert (tmp_path / "minimizer.csv").exists()
