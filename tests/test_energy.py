import importlib
import math
import os
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import fracflow as ff
from fracflow import scenarios
from fracflow.config import load_config
from fracflow.energy import _norm_grad, _starts
from fracflow.errors import ProjectionFailed, RootFindFailed, ZeroFunction
from fracflow.modular import EPS, _log_root

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@pytest.fixture(scope="module")
def geom16(ctx16):
    return ff.well_depth(ctx16, iters=300)


def test_energy_zero(ctx16, grid16):
    rep = ff.energy(ff.GridFunction.zeros(grid16), ctx16)
    assert rep.energy == 0.0 and rep.nehari == 0.0
    assert rep.gagliardo_modular == 0.0 and rep.q_modular == 0.0


def test_energy_constant_exponent_closed_form(ctx16, grid16, rng):
    # p = 2, q = 3: E = rho_sp/2 - rho_q/3, cross-checked against the
    # modular operations computed separately
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    rep = ff.energy(u, ctx16)
    rho_sp = ff.gagliardo_modular(u, ctx16)
    rho_q = ff.lebesgue_modular(u, 3.0)
    assert rep.gagliardo_modular == pytest.approx(rho_sp, rel=1e-13)
    assert rep.q_modular == pytest.approx(rho_q, rel=1e-13)
    assert rep.energy == pytest.approx(rho_sp / 2.0 - rho_q / 3.0, rel=1e-12)
    assert rep.nehari == rep.gagliardo_modular - rep.q_modular


def test_energy_ray_sweep_signs(domain, field):
    # frozen oracle run: on the default collar the unit bump's ray energy is
    # still climbing on t in 1..8; it crosses zero at exactly 1.5x the
    # manifold scaling and is strongly negative past it
    grid = ff.Grid(domain, 64, 256)
    ctx = ff.build_context(grid, field)
    bump = ff.standard_bump(grid)
    es = [ff.energy(bump.scaled(float(t)), ctx).energy for t in range(1, 9)]
    assert es[0] == pytest.approx(3.3626, abs=2e-4)
    assert es[7] == pytest.approx(78.6714, abs=2e-3)
    assert np.all(np.diff(es) > 0) and all(e > 0 for e in es)
    lam = ff.nehari_lambda(bump, ctx)
    assert lam == pytest.approx(8.0223, abs=2e-4)
    assert ff.energy(bump.scaled(1.5 * lam), ctx).energy == pytest.approx(0.0, abs=1e-9)
    assert ff.energy(bump.scaled(3.0 * lam), ctx).energy < -2000.0


def test_energy_gradient_zero_at_origin(ctx16, grid16):
    g = ff.energy_gradient(ff.GridFunction.zeros(grid16), ctx16)
    assert np.all(g.values == 0.0)


def test_energy_gradient_matches_finite_differences(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    g = ff.energy_gradient(u, ctx16).values
    h = 1e-6 * float(np.max(np.abs(u.values)))
    for k in range(grid16.n):
        up = u.values.copy()
        um = u.values.copy()
        up[k] += h
        um[k] -= h
        ep = ff.energy(ff.GridFunction(grid16, up), ctx16).energy
        em = ff.energy(ff.GridFunction(grid16, um), ctx16).energy
        fd = (ep - em) / (2.0 * h) / grid16.interior_widths[k]
        assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_energy_gradient_small_amplitude_is_operator(ctx16, grid16, rng):
    # the reaction is higher order near zero: grad E ~ Lu for tiny u
    u = ff.GridFunction(grid16, 1e-7 * rng.standard_normal(grid16.n))
    g = ff.energy_gradient(u, ctx16)
    Lu = ff.apply_operator(u, ctx16)
    assert np.allclose(g.values, Lu.values, rtol=1e-6)


def test_nehari_lambda_closed_form(ctx16, grid16, rng):
    for _ in range(20):
        u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        lam = ff.nehari_lambda(u, ctx16)
        closed = ff.gagliardo_modular(u, ctx16) / ff.energy(u, ctx16).q_modular
        assert lam == pytest.approx(closed, abs=1e-8 * closed)


def test_nehari_lambda_fixed_point_and_ray_scaling(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    lam = ff.nehari_lambda(u, ctx16)
    w = u.scaled(lam)
    assert ff.nehari_lambda(w, ctx16) == pytest.approx(1.0, abs=1e-8)
    for c in (0.3, 2.0, 17.0, 1e-40, 1e40):
        assert ff.nehari_lambda(u.scaled(c), ctx16) == pytest.approx(lam / c, rel=1e-9)


def test_nehari_lambda_root_find_cost_and_precision(ctx16, ctx16_var, grid16, rng, monkeypatch):
    from fracflow.modular import _lebesgue_side

    energy_mod = importlib.import_module("fracflow.energy")
    evals = []

    def counted(*args):
        t, n, bracket = _log_root(*args)
        evals.append(n)
        return t, n, bracket

    monkeypatch.setattr(energy_mod, "_log_root", counted)
    for _ in range(10):
        u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        ff.nehari_lambda(u, ctx16)
        assert evals[-1] <= 2  # constant exponents: one exact Newton step
        lam = ff.nehari_lambda(u, ctx16_var)
        assert evals[-1] <= 8
        side = ctx16_var.pair_coeffs(u.values)
        cp, ep = np.exp(side.logc), side.e
        q = _lebesgue_side(u, ctx16_var.q_interior)
        cq, eq = np.exp(q.logc), q.e
        sp, sq = np.sum(cp * lam**ep), np.sum(cq * lam**eq)
        assert abs(sp - sq) <= 1e-14 * (sp + sq)


def test_nehari_lambda_peaks_below_one_kept_table(ctx16_var):
    # variable p: the pair side's power sums run in the context's buffers
    grid = ff.Grid(ctx16_var.grid.domain, 128, 512)
    ctx = ff.OperatorContext(grid, ctx16_var.field)
    u = ff.standard_bump(grid)
    lam = ff.nehari_lambda(u.scaled(3.0), ctx)  # first call, outside the trace
    tracemalloc.start()
    try:
        assert ff.nehari_lambda(u, ctx) == pytest.approx(3.0 * lam, rel=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ctx.row_w.size * 8


def test_nehari_lambda_rejects_zero(ctx16, grid16):
    with pytest.raises(ZeroFunction):
        ff.nehari_lambda(ff.GridFunction.zeros(grid16), ctx16)


@pytest.mark.parametrize("name", ["ctx16", "ctx16_var"])
def test_nehari_lambda_with_an_empty_side_is_a_failed_root_find(name, grid16, request):
    from fracflow.modular import _lebesgue_side

    # |u|^q of the 1e-120 bump underflows to 0 on every cell, but its sides
    # are built from the bump scaled by a power of two, so neither is empty
    # and lam scales exactly; a side with no term still fails the root-find
    ctx = request.getfixturevalue(name)
    bump = ff.standard_bump(grid16)
    lam = ff.nehari_lambda(bump, ctx)
    assert ff.nehari_lambda(bump.scaled(1e-120), ctx) == pytest.approx(1e120 * lam, rel=1e-9)
    empty = _lebesgue_side(ff.GridFunction.zeros(grid16), ctx.q_interior)
    with pytest.raises(RootFindFailed, match="no positive term"):
        _log_root(ctx.pair_coeffs(bump.values), empty, 4.0 * EPS)


def test_nehari_lambda_residual_raises_typed_error(ctx16, grid16, rng, monkeypatch):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    energy_mod = importlib.import_module("fracflow.energy")  # ff.energy is the function
    true_root = energy_mod._log_root

    def off_root(*args):
        t, evals, bracket = true_root(*args)
        return t + math.log(1.01), evals, bracket

    monkeypatch.setattr(energy_mod, "_log_root", off_root)
    with pytest.raises(ProjectionFailed, match="residual"):
        ff.nehari_lambda(u, ctx16)


def test_nehari_unique_crossing_and_ray_max(ctx16, grid16, rng):
    from fracflow.modular import _lebesgue_side

    for _ in range(25):
        u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        lam = ff.nehari_lambda(u, ctx16)
        side = ctx16.pair_coeffs(u.values)
        cp, ep = np.exp(side.logc), side.e
        q = _lebesgue_side(u, ctx16.q_interior)
        cq, eq = np.exp(q.logc), q.e
        lams = np.logspace(np.log10(lam) - 3.0, np.log10(lam) + 3.0, 200)
        gvals = np.array([np.sum(cp * t**ep) - np.sum(cq * t**eq) for t in lams])
        signs = np.sign(gvals)
        assert int(np.sum(signs[:-1] != signs[1:])) == 1
        # the crossing maximizes the ray energy
        e_at = ff.energy(u.scaled(lam), ctx16).energy
        for t in lams[::20]:
            assert e_at >= ff.energy(u.scaled(float(t)), ctx16).energy - 1e-9 * abs(e_at)


def test_shifted_energy_inequality(ctx16, grid16, rng):
    # E - I/q- >= (1/p+ - 1/q-) rho_sp up to roundoff, for any state
    s = ctx16.summary
    c = 1.0 / s.p_plus - 1.0 / s.q_minus
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-2, 2)
        u = ff.GridFunction(grid16, scale * rng.standard_normal(grid16.n))
        rep = ff.energy(u, ctx16)
        lhs = rep.energy - rep.nehari / s.q_minus
        rhs = c * rep.gagliardo_modular
        assert lhs >= rhs - 1e-12 * (1.0 + rep.gagliardo_modular + rep.q_modular)


def test_quotient_scale_invariance(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    sn = ff.gagliardo_seminorm(u, ctx16).luxemburg_norm
    ln = ff.luxemburg_norm(u, 3.0).luxemburg_norm
    for c in (0.1, 3.0, 42.0):
        v = u.scaled(c)
        snc = ff.gagliardo_seminorm(v, ctx16).luxemburg_norm
        lnc = ff.luxemburg_norm(v, 3.0).luxemburg_norm
        assert snc / lnc == pytest.approx(sn / ln, rel=1e-8)
        assert snc == pytest.approx(c * sn, rel=1e-8)


def test_embedding_constant_below_bump_quotient(ctx16, grid16):
    bump = ff.standard_bump(grid16)
    q_bump = (
        ff.gagliardo_seminorm(bump, ctx16).luxemburg_norm
        / ff.luxemburg_norm(bump, 3.0).luxemburg_norm
    )
    lam_hat = ff.estimate_embedding_constant(ctx16, n_starts=4, iters=150, rng=0)
    assert lam_hat <= q_bump * (1.0 + 1e-12)


def test_embedding_constant_start_stability(domain, field):
    # frozen oracle: 8 vs 16 starts agree to well within 5 percent
    grid = ff.Grid(domain, 32, 32)
    ctx = ff.build_context(grid, field)
    l8 = ff.estimate_embedding_constant(ctx, n_starts=8, iters=120, rng=1)
    l16 = ff.estimate_embedding_constant(ctx, n_starts=16, iters=120, rng=2)
    assert abs(l8 - l16) / l8 < 0.05


def test_embedding_constant_evaluates_each_state_once(ctx16_var, monkeypatch):
    # the quotient's gradient reuses the norms solved for its value, so no
    # state's seminorm or Luxemburg norm is computed twice
    energy_mod = importlib.import_module("fracflow.energy")
    seen = Counter()

    def keyed(name, fn):
        def wrapped(u, *args, **kwargs):
            seen[name, u.values.tobytes()] += 1
            return fn(u, *args, **kwargs)
        return wrapped

    for name in ("gagliardo_seminorm", "luxemburg_norm"):
        monkeypatch.setattr(energy_mod, name, keyed(name, getattr(energy_mod, name)))
    ff.estimate_embedding_constant(ctx16_var, n_starts=3, iters=40, rng=0)
    assert len(seen) > 2 * 3
    assert max(seen.values()) == 1


def test_well_depth_skips_embedding_constant(ctx16, monkeypatch):
    energy_mod = importlib.import_module("fracflow.energy")

    def forbidden(*args, **kwargs):
        raise AssertionError("well_depth called estimate_embedding_constant")

    monkeypatch.setattr(energy_mod, "estimate_embedding_constant", forbidden)
    geom = ff.well_depth(ctx16, iters=20)
    assert geom.depth_hat > 0.0


def test_well_depth_without_descent_is_no_failed_descent(ctx16):
    # iters = 0 asks for the projected bump only: nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geom = ff.well_depth(ctx16, iters=0)
    assert geom.depth_hat > 0.0


def test_searches_refuse_negative_iters(ctx16):
    with pytest.raises(ValueError, match="iters must be nonnegative, got -3"):
        ff.well_depth(ctx16, iters=-3)
    with pytest.raises(ValueError, match="iters must be nonnegative, got -3"):
        ff.estimate_embedding_constant(ctx16, 2, -3)


@pytest.mark.parametrize("config, seeds", [
    ("geometry.cfg", (0, 1, 2, 3)),
    # a variable-exponent descent costs ~0.2 s, so one seed
    ("well-variable.cfg", (0,)),
], ids=["geometry", "well-variable"])
def test_no_start_descends_below_the_bump(config, seeds, monkeypatch):
    # the depth search starts from the bump alone; the sine mode and normal
    # starts, each descended as the bump is, end no lower than roundoff
    cfg = load_config(os.path.join(CONFIGS, config))
    ctx = scenarios._context(cfg)
    search = dict(iters=cfg.geometry.iters, tol=cfg.geometry.tol)
    depth = ff.well_depth(ctx, **search).depth_hat
    others = [ff.first_sine_mode(ctx.grid)]
    for seed in seeds:
        others += _starts(ctx.grid, 6, seed)[2:]
    energy_mod = importlib.import_module("fracflow.energy")
    used = []
    for u0 in others:
        monkeypatch.setattr(energy_mod, "standard_bump",
                            lambda grid, u0=u0: used.append(u0) or u0)
        assert ff.well_depth(ctx, **search).depth_hat >= depth * (1.0 - 1e-13)
    assert used == others


def test_well_depth_projects_no_trial_below_resolution(ctx16, monkeypatch):
    # every projection but the start's is a trial that is then evaluated,
    # except the one that lands back on the current state
    energy_mod = importlib.import_module("fracflow.energy")
    calls = Counter()
    for name in ("nehari_lambda", "energy"):
        def counted(*args, _name=name, _orig=getattr(energy_mod, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(energy_mod, name, counted)
    ff.well_depth(ctx16, iters=300)
    assert calls["energy"] > 10
    assert calls["nehari_lambda"] <= calls["energy"] + 1


def test_norm_gradients_match_finite_differences(ctx16, grid16, rng):
    vals = rng.standard_normal(grid16.n)
    h = 1e-6
    u = ff.GridFunction(grid16, vals)
    # each norm's gradient from its modular's gradient at u / norm
    vs = vals / ff.gagliardo_seminorm(u, ctx16, tol=1e-12).luxemburg_norm
    vq = vals / ff.luxemburg_norm(u, 3.0, tol=1e-12).luxemburg_norm
    gsn = _norm_grad(ctx16.sp_grad_interior(vs), vs, grid16.interior_widths)
    gln = _norm_grad(3.0 * np.abs(vq) * vq, vq, grid16.interior_widths)
    for k in range(0, grid16.n, 3):
        vp = vals.copy()
        vm = vals.copy()
        vp[k] += h
        vm[k] -= h
        up = ff.GridFunction(grid16, vp)
        um = ff.GridFunction(grid16, vm)
        fd_sn = (
            ff.gagliardo_seminorm(up, ctx16, tol=1e-12).luxemburg_norm
            - ff.gagliardo_seminorm(um, ctx16, tol=1e-12).luxemburg_norm
        ) / (2.0 * h) / grid16.interior_widths[k]
        fd_ln = (
            ff.luxemburg_norm(up, 3.0, tol=1e-12).luxemburg_norm
            - ff.luxemburg_norm(um, 3.0, tol=1e-12).luxemburg_norm
        ) / (2.0 * h) / grid16.interior_widths[k]
        assert gsn[k] == pytest.approx(fd_sn, rel=2e-4, abs=1e-7)
        assert gln[k] == pytest.approx(fd_ln, rel=2e-4, abs=1e-7)


def test_well_geometry_contracts(geom16, ctx16):
    lam_hat = ff.estimate_embedding_constant(ctx16, n_starts=4, iters=300, rng=0)
    r_hat, lower_bound = ff.depth_lower_bound(lam_hat, ctx16.summary)
    assert geom16.depth_hat > 0.0
    assert geom16.depth_hat >= lower_bound - 1e-9
    rep = ff.energy(geom16.minimizer, ctx16)
    scale = rep.gagliardo_modular + rep.q_modular
    assert abs(rep.nehari) <= 1e-9 * scale
    assert rep.energy == geom16.depth_hat
    # the inequality behind the attainment argument: every manifold point
    # carries at least the bound's worth of reaction modular
    assert rep.q_modular >= (1.0 / ctx16.summary.p_plus - 1.0 / ctx16.summary.q_minus) * r_hat
    # with constant exponents the depth is (1/p - 1/q) lambda^(pq/(q-p)),
    # so the depth search and the embedding-constant search must meet;
    # an under-converged search misses by far more than 1e-12
    p, q = ctx16.summary.p_plus, ctx16.summary.q_minus
    assert geom16.depth_hat == pytest.approx(
        (1.0 / p - 1.0 / q) * lam_hat ** (p * q / (q - p)), rel=1e-12)


def test_bound_constant_uses_all_four_powers(ctx16):
    s = ctx16.summary
    for lam in (0.5, 1.0, 2.0):
        r, lower = ff.depth_lower_bound(lam, s)
        powers = [
            s.q_plus * (s.q_plus / s.p_minus - 1.0),
            s.q_plus * (s.q_plus / s.p_plus - 1.0),
            s.q_minus * (s.q_minus / s.p_minus - 1.0),
            s.q_minus * (s.q_minus / s.p_plus - 1.0),
        ]
        assert r == max(lam**e for e in powers)
        assert lower == (1.0 / s.p_plus - 1.0 / s.q_minus) * r


def test_classify_well_positions(geom16, ctx16, grid16):
    w = geom16.minimizer
    assert ff.classify(ff.GridFunction.zeros(grid16), geom16, ctx16) == ff.IN_WELL
    assert ff.classify(w.scaled(0.5), geom16, ctx16) == ff.IN_WELL
    assert ff.classify(w.scaled(2.0), geom16, ctx16) == ff.IN_EXTERIOR
    assert ff.classify(w, geom16, ctx16) == ff.ON_NEHARI
    # just under the sine ray's crossing: I > 0 but the energy (59.06 on
    # this grid) sits above the depth 41.54
    tall = ff.first_sine_mode(grid16)
    lam = ff.nehari_lambda(tall, ctx16)
    above = tall.scaled(0.999 * lam)
    rep = ff.energy(above, ctx16)
    assert rep.energy >= geom16.depth_hat
    assert ff.classify(above, geom16, ctx16) == ff.ABOVE_WELL


def test_classify_puts_underflowing_states_in_the_well(geom16, ctx16, grid16):
    # rho_q of each state underflows to 0; rho_sp is a subnormal at 1e-160
    # and 0 from 1e-165 on, where both modulars vanish and I = 0 exactly
    bump = ff.standard_bump(grid16)
    for c in (1e-160, 1e-165, 1e-200):
        u = bump.scaled(c)
        rep = ff.energy(u, ctx16)
        assert rep.q_modular == 0.0 and (rep.gagliardo_modular > 0.0) == (c == 1e-160)
        assert ff.classify(u, geom16, ctx16) == ff.IN_WELL
