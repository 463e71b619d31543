"""Reproducible experiment scenarios wired from a configuration.

Each scenario builds its objects from the config, runs, writes artifacts
into the output directory, and prints one machine-parseable verdict line
per check ("<name>: PASS" or "<name>: FAIL (...)"); the exit status is 0
iff every verdict passed.
"""

import contextlib
import math
import os
from dataclasses import replace

import numpy as np

from .config import (
    _check_seed,
    build_control,
    build_domain,
    build_field,
    build_grid_from,
    build_initial,
    build_probe,
)
from .energy import (
    IN_EXTERIOR,
    IN_WELL,
    _starts,
    depth_lower_bound,
    energy,
    estimate_embedding_constant,
    nehari_lambda,
    standard_bump,
    well_depth,
)
from .errors import (AssumptionViolated, AuditFailed, ConfigError, NonFinite, ProjectionFailed,
                     RootFindFailed)
from .evolution import BLOWUP_CAP_HIT, blowup_inequality_audit, run
from .exponents import validate_assumptions
from .modular import gagliardo_modular
from .nonlocal_operator import build_context
from .report import _write_table, audit_to_csv, geometry_report, trajectory_to_csv

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


def _context(cfg, n=None):
    """The validated operator context of the config, on ``n`` interior
    cells when given."""
    domain = build_domain(cfg)
    grid = build_grid_from(cfg, domain, n=n)
    field = build_field(cfg, domain)
    return build_context(grid, field, sample_resolution=cfg.validation.resolution)


def _geometry(cfg, ctx):
    """Depth search for the config."""
    return well_depth(ctx, iters=cfg.geometry.iters, tol=cfg.geometry.tol)


def _scenario_validate(cfg, out_dir, v):
    domain = build_domain(cfg)
    summary = validate_assumptions(build_field(cfg, domain), domain, cfg.validation.resolution)
    crit_min = 2.0 * (summary.min_critical_bound - 1.0)
    v.info("p- = %r" % summary.p_minus)
    v.info("p+ = %r" % summary.p_plus)
    v.info("q- = %r" % summary.q_minus)
    v.info("q+ = %r" % summary.q_plus)
    v.info("min critical exponent p*_s = %r" % crit_min)
    v.info("min admissible bound p*_s/2 + 1 = %r" % summary.min_critical_bound)
    v.check("assumptions", True)


def _scenario_geometry(cfg, out_dir, v):
    ctx = _context(cfg)
    lam_hat = estimate_embedding_constant(
        ctx, n_starts=cfg.geometry.n_starts, iters=cfg.geometry.iters, rng=cfg.seed
    )
    r_hat, lower = depth_lower_bound(lam_hat, ctx.summary)
    geom = _geometry(cfg, ctx)
    v.info(geometry_report(geom, lam_hat, r_hat, lower, out_dir))
    v.check(
        "depth_lower_bound",
        geom.depth_hat >= lower - 1e-9,
        "depth_hat=%r lower_bound=%r" % (geom.depth_hat, lower),
    )


def _run_from_config(cfg, ctx, geometry, dt_init=None):
    u0 = build_initial(cfg, ctx.grid, minimizer=geometry.minimizer if geometry else None)
    return run(u0, build_control(cfg, dt_init=dt_init), ctx, geometry, r_probe=build_probe(cfg))


def _scenario_well(cfg, out_dir, v):
    ctx = _context(cfg)
    geom = _geometry(cfg, ctx)
    record = _run_from_config(cfg, ctx, geom)
    trajectory_to_csv(record, os.path.join(out_dir, "trajectory.csv"))
    v.info("termination: %s" % record.termination)
    classes = {s.well_class for s in record.samples}
    v.check("invariance", classes == {IN_WELL}, "classes seen: %s" % sorted(classes))
    l2s = record.column("l2")
    decayed = l2s[-1] <= 0.05 * l2s[0]
    # the ratio only for a failed check: a zero start decays at once
    v.check("decay", decayed,
            "" if decayed else "final/initial l2 = %r" % float(l2s[-1] / l2s[0]))


def _scenario_blowup(cfg, out_dir, v):
    ctx = _context(cfg)
    geom = _geometry(cfg, ctx)
    record = _run_from_config(cfg, ctx, geom)
    trajectory_to_csv(record, os.path.join(out_dir, "trajectory.csv"))
    v.info("E(u0) = %r" % record.samples[0].energy)
    v.info("termination: %s" % record.termination)
    v.check("cap_hit", record.termination == BLOWUP_CAP_HIT, record.termination)
    phis = record.column("phi")
    v.check(
        "phi_increasing",
        len(phis) > 1 and bool(np.all(np.diff(phis) > 0.0)),
        "min increment %r" % float(np.min(np.diff(phis))) if len(phis) > 1 else "no steps",
    )
    if record.termination == BLOWUP_CAP_HIT:
        v.info("t_max_estimate = %r" % record.samples[-1].t)
    audit_path = os.path.join(out_dir, "audit.csv")
    try:
        audit = blowup_inequality_audit(record, ctx.summary)
    except AuditFailed as exc:  # surfaced as a FAIL verdict, not a crash
        # an earlier run's audit.csv would stand beside this run's FAIL
        with contextlib.suppress(FileNotFoundError):
            os.remove(audit_path)
        v.check("inequality_audit", False, str(exc))
    else:
        audit_to_csv(audit, audit_path)
        # the extrapolation rests on the measured rate, so only a passed
        # audit reports it
        if audit.t_max_extrapolated is not None:
            v.info("t_max_extrapolated = %r" % audit.t_max_extrapolated)
        v.info("measured rate constant = %r" % audit.rate_constant)
        v.check("inequality_audit", True)
    classes = {s.well_class for s in record.samples}
    v.check("exterior_invariance", classes == {IN_EXTERIOR},
            "classes seen: %s" % sorted(classes))


def _scenario_nehari_sweep(cfg, out_dir, v):
    ctx = _context(cfg)
    labels = ["bump", "sine"] + ["random-%d" % k for k in range(8)]
    cases = zip(labels, _starts(ctx.grid, len(labels), cfg.seed))
    constant_exps = isinstance(ctx.P, float) and isinstance(ctx.q_interior, float)
    rows = []
    worst = 0.0
    worst_resid = 0.0
    for label, u in cases:
        # the sweep checks each residual against geometry.tol itself, below
        lam = nehari_lambda(u, ctx, tol=math.inf)
        rep = energy(u.scaled(lam), ctx)
        resid = abs(rep.nehari) / (rep.gagliardo_modular + rep.q_modular)
        worst_resid = max(worst_resid, resid)
        if constant_exps:
            rep0 = energy(u, ctx)
            closed = (rep0.gagliardo_modular / rep0.q_modular) ** (
                1.0 / (ctx.q_interior - ctx.P))
            err = abs(lam - closed)
            worst = max(worst, err)
            rows.append((label, lam, closed, err, resid))
        else:
            rows.append((label, lam, "", "", resid))
        v.info("%s: lambda_hat = %r" % (label, lam))
    _write_table(os.path.join(out_dir, "nehari_sweep.csv"),
                 "label,lambda_hat,closed_form,abs_err,nehari_residual", rows)
    if constant_exps:
        v.check("closed_form_match", worst <= 1e-8, "worst |err| = %r" % worst)
    v.check(
        "projection_residuals",
        worst_resid <= cfg.geometry.tol,
        "worst residual %r > tol %r" % (worst_resid, cfg.geometry.tol),
    )


def _scenario_convergence(cfg, out_dir, v):
    # every context is built before the first search, so a grid over the
    # pair-table cap fails up front; the largest, at 2n, goes first
    fine = _context(cfg, n=2 * cfg.grid.n)
    radius = cfg.domain.exterior_radius
    wide = _context(replace(cfg, domain=replace(cfg.domain, exterior_radius=2.0 * radius),
                            grid=replace(cfg.grid, m=2 * cfg.grid.m)))
    rows = []
    orders = []
    for ctx in (_context(cfg), fine):
        n = ctx.grid.n
        geom = _geometry(cfg, ctx)
        residuals = []
        for k in range(3):
            dt = cfg.step.dt_init / 2.0**k
            record = _run_from_config(cfg, ctx, geom, dt_init=dt)
            res = record.samples[-1].residual
            residuals.append(res)
            rows.append((str(n), dt, res))
        for k in range(2):
            if residuals[k + 1] > 0.0:
                orders.append(float(np.log2(residuals[k] / residuals[k + 1])))
        # refinement diagnostics: nonlocal modular of the bump under grid
        # refinement and collar growth (truncation tail indicator)
        bump = standard_bump(ctx.grid)
        v.info("modular(bump) at n=%d: %r" % (n, gagliardo_modular(bump, ctx)))
    v.info("modular(bump) at doubled collar: %r"
           % gagliardo_modular(standard_bump(wide.grid), wide))
    _write_table(os.path.join(out_dir, "convergence.csv"), "n,dt,residual", rows)
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


def run_scenario(cfg):
    """Run the configured scenario; returns the process exit status.

    Artifacts land in the config's output directory ``cfg.out``.  A
    config the scenario cannot run, such as an initial-data file for the
    convergence study or a negative seed from ``--seed``, is a ConfigError
    before the directory is made.  An exponent field that violates
    (a1)-(a4) is the failed verdict ``assumptions``, and ends the scenario;
    so is a manifold projection that misses ``geometry.tol``, an initial
    state whose energy overflows, or a norm whose root-find fails, as the
    failed verdict ``completed`` naming the error.
    """
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            "unknown scenario %r; choose from %s"
            % (cfg.scenario, ", ".join(sorted(SCENARIOS)))
        )
    if cfg.scenario == "convergence" and cfg.initial.kind == "file":
        raise ConfigError("initial: recipe 'file' holds one grid, and the convergence "
                          "scenario runs on n and 2n cells")
    try:
        _check_seed(cfg.seed)
    except ValueError as exc:
        raise ConfigError("seed: %s" % exc) from exc
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    v = _Verdicts()
    try:
        SCENARIOS[cfg.scenario](cfg, out_dir, v)
    except AssumptionViolated as exc:
        v.check("assumptions", False, str(exc))
    except (ProjectionFailed, NonFinite, RootFindFailed) as exc:
        v.check("completed", False, "%s: %s" % (type(exc).__name__, exc))
    v.lines.append("scenario %s: %s" % (cfg.scenario, "PASS" if v.ok else "FAIL"))
    for line in v.lines:
        print(line)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(v.lines) + "\n")
    return 0 if v.ok else 1
