"""Reproducible experiment scenarios wired from a configuration.

Each scenario builds its objects from the config, runs, writes artifacts
into the output directory, and prints one machine-parseable verdict line
per check ("<name>: PASS" or "<name>: FAIL (...)"); the exit status is 0
iff every verdict passed.
"""

import os

import numpy as np

from .config import (
    build_control,
    build_domain,
    build_field,
    build_grid_from,
    build_initial,
    build_probe,
)
from .energy import IN_WELL, energy, nehari_lambda, standard_bump, first_sine_mode, well_depth
from .errors import AuditFailed, ConfigError
from .evolution import (
    BLOWUP_CAP_HIT,
    blowup_inequality_audit,
    exterior_invariance_check,
    run,
)
from .exponents import validate_assumptions
from .grid import Domain, Grid, GridFunction
from .modular import gagliardo_modular
from .nonlocal_operator import build_context
from .report import audit_to_csv, geometry_report, trajectory_to_csv

__all__ = ["run_scenario", "SCENARIOS"]


class _Verdicts:
    def __init__(self):
        self.lines = []
        self.ok = True

    def check(self, name, passed, detail=""):
        passed = bool(passed)
        self.ok &= passed
        suffix = (" (%s)" % detail) if detail and not passed else ""
        self.lines.append("%s: %s%s" % (name, "PASS" if passed else "FAIL", suffix))
        return passed

    def info(self, line):
        self.lines.append(line)


def _prepare(cfg):
    domain = build_domain(cfg)
    grid = build_grid_from(cfg, domain)
    field = build_field(cfg, domain)
    ctx = build_context(grid, field, sample_resolution=cfg.validation.resolution)
    return domain, grid, field, ctx


def _geometry(cfg, ctx):
    return well_depth(
        ctx,
        n_starts=cfg.geometry.n_starts,
        iters=cfg.geometry.iters,
        tol=cfg.geometry.tol,
        rng=cfg.seed,
    )


def _scenario_validate(cfg, out_dir, v):
    domain = build_domain(cfg)
    field = build_field(cfg, domain)
    summary = validate_assumptions(field, domain, cfg.validation.resolution)
    crit_min = 2.0 * (summary.min_critical_bound - 1.0)
    v.info("p- = %r" % summary.p_minus)
    v.info("p+ = %r" % summary.p_plus)
    v.info("q- = %r" % summary.q_minus)
    v.info("q+ = %r" % summary.q_plus)
    v.info("min critical exponent p*_s = %r" % crit_min)
    v.info("min admissible bound p*_s/2 + 1 = %r" % summary.min_critical_bound)
    v.check("assumptions", True)


def _scenario_geometry(cfg, out_dir, v):
    _, _, _, ctx = _prepare(cfg)
    geom = _geometry(cfg, ctx)
    v.info(geometry_report(geom, out_dir))
    v.check("depth_positive", geom.depth_hat > 0.0, "depth_hat=%r" % geom.depth_hat)
    v.check(
        "depth_lower_bound",
        geom.depth_hat >= geom.lower_bound - 1e-9,
        "depth_hat=%r lower_bound=%r" % (geom.depth_hat, geom.lower_bound),
    )
    rep = energy(geom.minimizer, ctx)
    scale = rep.gagliardo_modular + rep.q_modular
    v.check(
        "minimizer_on_manifold",
        abs(rep.nehari) <= cfg.geometry.tol * scale,
        "I=%r scale=%r" % (rep.nehari, scale),
    )


def _run_from_config(cfg, ctx, geometry, dt_init=None):
    grid = ctx.grid
    u0 = build_initial(cfg, grid, minimizer=geometry.minimizer if geometry else None)
    control = build_control(cfg, dt_init=dt_init)
    probe = build_probe(cfg)
    return u0, run(u0, control, ctx, geometry, r_probe=probe)


def _scenario_well(cfg, out_dir, v):
    _, _, _, ctx = _prepare(cfg)
    geom = _geometry(cfg, ctx)
    u0, record = _run_from_config(cfg, ctx, geom)
    trajectory_to_csv(record, os.path.join(out_dir, "trajectory.csv"))
    v.info("termination: %s" % record.termination)
    classes = {s.well_class for s in record.samples}
    v.check("invariance", classes == {IN_WELL}, "classes seen: %s" % sorted(classes))
    energies = record.column("energy")
    v.check(
        "dissipativity",
        bool(
            np.all(np.diff(energies) <= cfg.step.energy_increase_tol)
        ),
        "max increase %r" % float(np.max(np.diff(energies))),
    )
    l2s = record.column("l2")
    v.check(
        "decay",
        l2s[-1] <= 0.05 * l2s[0],
        "final/initial l2 = %r" % float(l2s[-1] / l2s[0]),
    )


def _scenario_blowup(cfg, out_dir, v):
    _, _, _, ctx = _prepare(cfg)
    geom = _geometry(cfg, ctx)
    u0, record = _run_from_config(cfg, ctx, geom)
    trajectory_to_csv(record, os.path.join(out_dir, "trajectory.csv"))
    e0 = energy(u0, ctx).energy
    v.info("E(u0) = %r" % e0)
    v.info("termination: %s" % record.termination)
    v.check("negative_initial_energy", e0 < 0.0, "E(u0)=%r" % e0)
    v.check("cap_hit", record.termination == BLOWUP_CAP_HIT, record.termination)
    phis = record.column("phi")
    v.check(
        "phi_increasing",
        bool(np.all(np.diff(phis) > 0.0)),
        "min increment %r" % float(np.min(np.diff(phis))) if len(phis) > 1 else "no steps",
    )
    if record.t_max_estimate is not None:
        v.info("t_max_estimate = %r" % record.t_max_estimate)
    if record.t_max_extrapolated is not None:
        v.info("t_max_extrapolated = %r" % record.t_max_extrapolated)
    if e0 >= 0.0:
        v.check("inequality_audit", False, "not run: E(u0) >= 0")
    else:
        try:
            audit = blowup_inequality_audit(record, ctx, e0)
        except AuditFailed as exc:  # surfaced as a FAIL verdict, not a crash
            v.check("inequality_audit", False, str(exc))
        else:
            audit_to_csv(audit, os.path.join(out_dir, "audit.csv"))
            v.info("measured rate constant = %r" % audit.rate_constant)
            v.check("inequality_audit", True)
    v.check("exterior_invariance", exterior_invariance_check(record))


def _scenario_nehari_sweep(cfg, out_dir, v):
    _, grid, field, ctx = _prepare(cfg)
    rng = np.random.default_rng(cfg.seed)
    cases = [("bump", standard_bump(grid)), ("sine", first_sine_mode(grid))]
    for k in range(8):
        cases.append(
            ("random-%d" % k, GridFunction.from_interior(grid, rng.standard_normal(grid.n)))
        )
    summary = ctx.summary
    constant_exps = summary.p_minus == summary.p_plus and summary.q_minus == summary.q_plus
    rows = ["label,lambda_hat,closed_form,abs_err,nehari_residual"]
    worst = 0.0
    worst_resid = 0.0
    for label, u in cases:
        lam = nehari_lambda(u, ctx, tol=cfg.geometry.tol)
        rep = energy(u.scaled(lam), ctx)
        resid = abs(rep.nehari) / (rep.gagliardo_modular + rep.q_modular)
        worst_resid = max(worst_resid, resid)
        if constant_exps:
            p0, q0 = summary.p_plus, summary.q_plus
            closed = (gagliardo_modular(u, ctx) / energy(u, ctx).q_modular) ** (
                1.0 / (q0 - p0)
            )
            err = abs(lam - closed)
            worst = max(worst, err)
            rows.append("%s,%r,%r,%r,%r" % (label, lam, closed, err, resid))
        else:
            rows.append("%s,%r,,,%r" % (label, lam, resid))
        v.info("%s: lambda_hat = %r" % (label, lam))
    with open(os.path.join(out_dir, "nehari_sweep.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    if constant_exps:
        v.check("closed_form_match", worst <= 1e-8, "worst |err| = %r" % worst)
    v.check(
        "projection_residuals",
        worst_resid <= cfg.geometry.tol,
        "worst residual %r > tol %r" % (worst_resid, cfg.geometry.tol),
    )


def _scenario_convergence(cfg, out_dir, v):
    domain = build_domain(cfg)
    rows = ["n,dt,residual"]
    orders = []
    for n in (cfg.grid.n, 2 * cfg.grid.n):
        grid = build_grid_from(cfg, domain, n=n)
        field = build_field(cfg, domain)
        ctx = build_context(grid, field, sample_resolution=cfg.validation.resolution)
        geom = _geometry(cfg, ctx)
        residuals = []
        for k in range(3):
            dt = cfg.step.dt_init / 2.0**k
            _, record = _run_from_config(cfg, ctx, geom, dt_init=dt)
            res = record.samples[-1].residual
            residuals.append(res)
            rows.append("%d,%r,%r" % (n, dt, res))
        for k in range(2):
            if residuals[k + 1] > 0.0:
                orders.append(float(np.log2(residuals[k] / residuals[k + 1])))
        # refinement diagnostics: nonlocal modular of the bump under grid
        # refinement and collar growth (truncation tail indicator)
        bump = standard_bump(grid)
        v.info("modular(bump) at n=%d: %r" % (n, gagliardo_modular(bump, ctx)))
    wide = build_domain(cfg)
    wide2 = Domain(wide.a, wide.b, 2.0 * wide.exterior_radius)
    grid2 = Grid(wide2, cfg.grid.n, 2 * cfg.grid.m)
    field2 = build_field(cfg, wide2)
    ctx2 = build_context(grid2, field2, sample_resolution=cfg.validation.resolution)
    v.info(
        "modular(bump) at doubled collar: %r"
        % gagliardo_modular(standard_bump(grid2), ctx2)
    )
    with open(os.path.join(out_dir, "convergence.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    v.info("orders: %s" % ", ".join("%r" % o for o in orders))
    v.check(
        "residual_order",
        bool(orders) and min(orders) >= 0.8,
        "orders %s" % orders,
    )


SCENARIOS = {
    "validate": _scenario_validate,
    "geometry": _scenario_geometry,
    "well": _scenario_well,
    "blowup": _scenario_blowup,
    "nehari-sweep": _scenario_nehari_sweep,
    "convergence": _scenario_convergence,
}


def run_scenario(cfg, out_dir=None, echo=print):
    """Run the configured scenario; returns the process exit status.

    Artifacts land in ``out_dir`` (default: the config's output directory).
    """
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            "unknown scenario %r; choose from %s"
            % (cfg.scenario, ", ".join(sorted(SCENARIOS)))
        )
    out_dir = out_dir or cfg.out
    os.makedirs(out_dir, exist_ok=True)
    v = _Verdicts()
    SCENARIOS[cfg.scenario](cfg, out_dir, v)
    v.lines.append("scenario %s: %s" % (cfg.scenario, "PASS" if v.ok else "FAIL"))
    for line in v.lines:
        echo(line)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(v.lines) + "\n")
    return 0 if v.ok else 1
