"""Acceptance suite: one test per criterion, run at the shipped defaults.

Each criterion prints a machine-readable verdict line on success; a pytest
failure is the FAIL verdict.  Reference values marked as frozen come from
the committed oracle runs on the default configuration (interval (-1, 1),
collar radius 8, n = 32, m = 128, s = 0.4, p = 2, q = 3, seed 0).
"""

import time

import numpy as np
import pytest

import fracflow as ff
from fracflow.cli import main
from fracflow.config import default_config, serialize_config
from fracflow.modular import _lebesgue_side

# frozen oracle references (first oracle run, committed)
DEPTH_REF_N32 = 71.981809
DEPTH_REF_N64 = 72.970237


def _verdict(num, name):
    print("\nACCEPTANCE %d %s: PASS" % (num, name))


@pytest.fixture(scope="module")
def default_ctx(domain, field):
    grid = ff.Grid(domain, 32, 128)
    return ff.build_context(grid, field)


@pytest.fixture(scope="module")
def default_geometry(default_ctx):
    return ff.well_depth(default_ctx, iters=400)


@pytest.fixture(scope="module")
def ctx64(domain, field):
    grid = ff.Grid(domain, 64, 128)
    return ff.build_context(grid, field)


def test_criterion_1_duality_identity(default_ctx):
    grid = default_ctx.grid
    rng = np.random.default_rng(11)
    start = time.time()
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-2, 2)
        u = ff.GridFunction(grid, scale * rng.standard_normal(grid.n))
        rho = ff.gagliardo_modular(u, default_ctx)
        pairing = ff.weak_form(u, u, default_ctx)
        assert abs(pairing - rho) <= 1e-12 * (1.0 + rho)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _verdict(1, "duality identity (100 states, %.2fs)" % elapsed)


def test_criterion_2_gradient_oracle(domain, field):
    grid = ff.Grid(domain, 16, 16)
    ctx = ff.build_context(grid, field)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        u = ff.GridFunction(grid, rng.standard_normal(grid.n))
        g = ff.energy_gradient(u, ctx).values
        h = 1e-6 * float(np.max(np.abs(u.values)))
        for k in range(grid.n):
            up = u.values.copy()
            um = u.values.copy()
            up[k] += h
            um[k] -= h
            ep = ff.energy(ff.GridFunction(grid, up), ctx).energy
            em = ff.energy(ff.GridFunction(grid, um), ctx).energy
            fd = (ep - em) / (2.0 * h) / grid.interior_widths[k]
            denom = max(abs(fd), 1e-8)
            worst = max(worst, abs(g[k] - fd) / denom)
    assert worst <= 1e-5
    _verdict(2, "gradient oracle (max rel err %.2e)" % worst)


def test_criterion_3_luxemburg_oracle(default_ctx, domain, field):
    grid = default_ctx.grid
    rng = np.random.default_rng(13)
    for h in (2.0, 3.5):
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-1, 1)
            u = ff.GridFunction(grid, scale * rng.standard_normal(grid.n))
            rep = ff.luxemburg_norm(u, h)
            closed = rep.modular_value ** (1.0 / h)
            assert abs(rep.luxemburg_norm - closed) <= 1e-8
    # envelope suites on 1000 samples each, variable exponents included
    small_grid = ff.Grid(domain, 16, 16)
    small_ctx = ff.build_context(small_grid, field)
    hv = ff.modular.exponent_values(lambda x: 2.0 + x**2, small_grid.interior_centers)
    lo, hi = float(np.min(hv)), float(np.max(hv))
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-2, 2)
        u = ff.GridFunction(small_grid, scale * rng.standard_normal(small_grid.n))
        rep = ff.luxemburg_norm(u, lambda x: 2.0 + x**2)
        nrm, mod = rep.luxemburg_norm, rep.modular_value
        a, b = nrm**lo, nrm**hi
        assert min(a, b) * (1 - 1e-8) - 1e-12 <= mod <= max(a, b) * (1 + 1e-8) + 1e-12
    p_lo, p_hi = small_ctx.summary.p_minus, small_ctx.summary.p_plus
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-2, 1)
        u = ff.GridFunction(small_grid, scale * rng.standard_normal(small_grid.n))
        rep = ff.gagliardo_seminorm(u, small_ctx)
        nrm, mod = rep.luxemburg_norm, rep.modular_value
        a, b = nrm**p_lo, nrm**p_hi
        assert min(a, b) * (1 - 1e-8) - 1e-12 <= mod <= max(a, b) * (1 + 1e-8) + 1e-12
    _verdict(3, "luxemburg oracle and envelope suites")


def test_criterion_4_nehari_oracle(default_ctx):
    grid = default_ctx.grid
    rng = np.random.default_rng(14)
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-1, 1)
        u = ff.GridFunction(grid, scale * rng.standard_normal(grid.n))
        lam = ff.nehari_lambda(u, default_ctx)
        closed = ff.gagliardo_modular(u, default_ctx) / ff.energy(u, default_ctx).q_modular
        assert abs(lam - closed) <= 1e-8
        w = u.scaled(lam)
        assert abs(ff.nehari_lambda(w, default_ctx) - 1.0) <= 1e-8
        # exactly one sign change of I(t u) over a 200-point log grid
        side = default_ctx.pair_coeffs(u.values)
        cp, ep = np.exp(side.logc), side.e
        q = _lebesgue_side(u, default_ctx.q_interior)
        cq, eq = np.exp(q.logc), q.e
        ts = np.logspace(np.log10(lam) - 3.0, np.log10(lam) + 3.0, 200)
        gvals = np.array([np.sum(cp * t**ep) - np.sum(cq * t**eq) for t in ts])
        signs = np.sign(gvals)
        assert int(np.sum(signs[:-1] != signs[1:])) == 1
    _verdict(4, "manifold scaling oracle")


def test_criterion_5_monotonicity(default_ctx):
    grid = default_ctx.grid
    rng = np.random.default_rng(15)
    for _ in range(100):
        u = ff.GridFunction(grid, rng.standard_normal(grid.n))
        v = ff.GridFunction(grid, rng.standard_normal(grid.n))
        gap = ff.monotonicity_gap(u, v, default_ctx)
        scale = 1.0 + ff.weak_form(u, u, default_ctx) + ff.weak_form(v, v, default_ctx)
        assert gap >= -1e-12 * scale
        if ff.l2_norm(ff.GridFunction(grid, u.values - v.values)) > 1e-8:
            assert gap > 0.0
    _verdict(5, "operator monotonicity")


def test_criterion_6_shifted_inequality_and_scalar_convexity(default_ctx):
    grid = default_ctx.grid
    s = default_ctx.summary
    c = 1.0 / s.p_plus - 1.0 / s.q_minus
    rng = np.random.default_rng(16)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-2, 2)
        u = ff.GridFunction(grid, scale * rng.standard_normal(grid.n))
        rep = ff.energy(u, default_ctx)
        lhs = rep.energy - rep.nehari / s.q_minus
        rhs = c * rep.gagliardo_modular
        assert lhs >= rhs - 1e-12 * (1.0 + rep.gagliardo_modular + rep.q_modular)
    r = rng.uniform(-50, 50, size=100_000)
    sv = rng.uniform(-50, 50, size=100_000)
    p = rng.uniform(2.0, 6.0, size=100_000)
    assert np.all(ff.convexity_inequality_check(r, sv, p))
    _verdict(6, "shifted energy inequality and scalar convexity sweep")


def test_criterion_7_depth_consistency(default_ctx, default_geometry, ctx64):
    geom32 = default_geometry
    lam_hat = ff.estimate_embedding_constant(default_ctx, n_starts=4, iters=400, rng=0)
    _, lower_bound = ff.depth_lower_bound(lam_hat, default_ctx.summary)
    assert geom32.depth_hat > 0.0
    assert geom32.depth_hat >= lower_bound - 1e-9
    assert abs(geom32.depth_hat - DEPTH_REF_N32) <= 0.02 * DEPTH_REF_N32
    geom64 = ff.well_depth(ctx64, iters=400)
    assert abs(geom64.depth_hat - DEPTH_REF_N64) <= 0.02 * DEPTH_REF_N64
    gap = abs(geom64.depth_hat - geom32.depth_hat) / geom32.depth_hat
    assert gap <= 0.02
    _verdict(
        7,
        "depth consistency (d32=%.4f, d64=%.4f, gap %.2f%%, bound %.4f)"
        % (geom32.depth_hat, geom64.depth_hat, 100 * gap, lower_bound),
    )


def test_criterion_8_global_existence_decay(default_ctx, default_geometry):
    start = time.time()
    u0 = default_geometry.minimizer.scaled(0.5)
    ctl = ff.StepControl(
        dt_init=1e-3, dt_min=1e-12, dt_max=1e-2, t_final=1.0, max_steps=50_000
    )
    rec = ff.run(u0, ctl, default_ctx, default_geometry, r_probe=2.0)
    assert rec.termination == ff.REACHED_FINAL_TIME
    assert {s.well_class for s in rec.samples} == {ff.IN_WELL}
    energies = rec.column("energy")
    assert np.all(np.diff(energies) <= ctl.energy_increase_tol)
    l2s = rec.column("l2")
    assert l2s[-1] <= 0.05 * l2s[0]
    # energy-equality residual convergence order across dt, dt/2, dt/4
    residuals = []
    for k in range(3):
        dt = 1e-3 / 2.0**k
        ctl_k = ff.StepControl(
            dt_init=dt, dt_min=1e-12, dt_max=dt, t_final=0.25, max_steps=50_000
        )
        rec_k = ff.run(u0, ctl_k, default_ctx, default_geometry)
        residuals.append(rec_k.samples[-1].residual)
    orders = [float(np.log2(residuals[i] / residuals[i + 1])) for i in range(2)]
    assert min(orders) >= 0.8
    elapsed = time.time() - start
    assert elapsed < 120.0
    _verdict(
        8,
        "global existence and decay (|u(T)|/|u0| = %.2e, orders %s, %.1fs)"
        % (l2s[-1] / l2s[0], ["%.2f" % o for o in orders], elapsed),
    )


def test_criterion_9_blowup(default_ctx, default_geometry):
    start = time.time()
    u0 = default_geometry.minimizer.scaled(2.0)
    e0 = ff.energy(u0, default_ctx).energy
    assert e0 < 0.0
    ctl = ff.StepControl(
        dt_init=1e-3, dt_min=1e-14, dt_max=1e-2, t_final=10.0, max_steps=200_000
    )
    rec = ff.run(u0, ctl, default_ctx, default_geometry, r_probe=2.0)
    assert rec.termination == ff.BLOWUP_CAP_HIT
    assert len(rec.samples) < 200_000 and rec.t_max_estimate is not None
    phis = rec.column("phi")
    assert np.all(np.diff(phis) > 0.0)
    audit = ff.blowup_inequality_audit(rec, default_ctx.summary)
    assert audit.rate_constant > 0.0
    assert ff.exterior_invariance_check(rec)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _verdict(
        9,
        "finite-time blow-up (E0=%.2f, t_cap=%.4f, rate %.3f, %.1fs)"
        % (e0, rec.t_max_estimate, audit.rate_constant, elapsed),
    )


def test_criterion_10_determinism(tmp_path, capsys):
    cfg = default_config("well")
    cfg.grid.n = 16
    cfg.grid.m = 16
    cfg.geometry.n_starts = 2
    cfg.geometry.iters = 60
    cfg.step.t_final = 0.2
    cfg.seed = 42
    cfgpath = tmp_path / "well.cfg"
    cfgpath.write_text(serialize_config(cfg))
    blobs = []
    for name in ("run1", "run2"):
        rc = main(
            ["well", "--config", str(cfgpath), "--out", str(tmp_path / name)]
        )
        capsys.readouterr()
        assert rc in (0, 1)  # determinism is about bytes, not verdicts
        blobs.append((tmp_path / name / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1]
    _verdict(10, "byte-identical scenario reruns")
