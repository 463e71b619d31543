import importlib
import os
from collections import Counter

import numpy as np
import pytest

import fracflow as ff
from fracflow import scenarios
from fracflow.config import load_config
from fracflow.errors import InnerSolveStalled, NonFinite
from fracflow.evolution import SCHEME_IMEX

from oracles import brute_apply, zero_extended


@pytest.fixture(scope="module")
def geom16(ctx16):
    return ff.well_depth(ctx16, iters=300)


def _control(**kw):
    base = dict(dt_init=1e-3, dt_min=1e-12, dt_max=1e-2, t_final=0.1, max_steps=50_000)
    base.update(kw)
    return ff.StepControl(**base)


def test_zero_is_equilibrium(ctx16, grid16, geom16):
    rec = ff.run(ff.GridFunction.zeros(grid16), _control(t_final=0.02), ctx16, geom16)
    assert rec.termination == ff.REACHED_FINAL_TIME
    assert all(s.l2 == 0.0 and s.residual == 0.0 for s in rec.samples)
    assert rec.samples[0].residual == 0.0


def test_explicit_step_is_gradient_update(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    st = ff.make_state(u, ctx16)
    dt = 1e-5
    new = ff.step_explicit(st, dt, ctx16)
    g = ff.energy_gradient(u, ctx16)
    # the step IS u - dt*grad, so the difference quotient equals |grad| exactly
    rate = ff.l2_norm(ff.GridFunction(grid16, (new.u.values - u.values) / dt))
    assert rate == pytest.approx(ff.l2_norm(g), rel=1e-12)
    assert new.t == pytest.approx(st.t + dt)


def test_explicit_step_against_straight_line_recomputation(field, rng):
    # independent recomputation: u - dt*(Lu - |u|^(q-2)u) with the brute
    # force operator loop
    dom = ff.Domain(-1.0, 1.0, 1.0)
    grid = ff.Grid(dom, 6, 3)
    ctx = ff.OperatorContext(grid, field)
    u = ff.GridFunction(grid, rng.standard_normal(grid.n))
    dt = 1e-4
    new = ff.step_explicit(ff.make_state(u, ctx), dt, ctx)
    Lu = brute_apply(grid, field, zero_extended(grid, u.values))
    react = np.abs(u.values) ** 1.0 * u.values  # q = 3
    expected = u.values - dt * (Lu - react)
    assert np.allclose(new.u.values, expected, rtol=1e-12, atol=1e-14)


def test_explicit_step_raises_on_overflow(ctx16, grid16):
    huge = ff.GridFunction(grid16, np.full(grid16.n, 1e200))
    with pytest.raises(NonFinite):
        ff.step_explicit(ff.make_state(huge, ctx16), 1.0, ctx16)


def test_make_state_refuses_an_overflowing_energy(ctx16, grid16):
    # |u|^3 overflows while u itself is finite
    huge = ff.GridFunction(grid16, np.full(grid16.n, 1e200))
    with pytest.raises(NonFinite, match=r"^energy overflowed at t = 0\.0$"):
        ff.make_state(huge, ctx16)


def test_run_whose_update_overflows_ends_non_finite(ctx16, grid16, geom16):
    # the start's energy is finite, but u - dt grad E(u) overflows
    u0 = ff.GridFunction(grid16, np.full(grid16.n, 1e90))
    with pytest.raises(NonFinite, match="grid function values must be finite"):
        ff.step_explicit(ff.make_state(u0, ctx16), 1e250, ctx16)
    ctl = _control(dt_init=1e250, dt_max=1e250, t_final=1e251, blowup_cap=1e300)
    rec = ff.run(u0, ctl, ctx16, geom16)
    assert rec.termination == ff.NON_FINITE
    assert len(rec.samples) == 1 and rec.samples[-1].t == 0.0


def test_imex_zero_fixed_point(ctx16, grid16):
    st = ff.make_state(ff.GridFunction.zeros(grid16), ctx16)
    new = ff.step_imex(st, 1e-3, ctx16)
    assert np.all(new.u.values == 0.0)


def test_imex_decreases_proximal_objective(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    st = ff.make_state(u, ctx16)
    dt = 1e-3
    new = ff.step_imex(st, dt, ctx16)
    wi = grid16.interior_widths
    react = np.abs(u.values) ** 1.0 * u.values

    def objective(v):
        full = ff.GridFunction(grid16, v)
        quad = float(np.dot((v - u.values) ** 2, wi)) / (2.0 * dt)
        return quad + ctx16.i1(full.values) - float(np.dot(react * v, wi))

    start = objective(u.values)
    end = objective(new.u.values)
    assert end <= start + 1e-12 * (1.0 + abs(start))


def test_imex_second_order_agreement_with_explicit(ctx16, grid16, geom16):
    u = geom16.minimizer.scaled(0.5)
    st = ff.make_state(u, ctx16)
    diffs = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        a = ff.step_explicit(st, dt, ctx16)
        b = ff.step_imex(st, dt, ctx16, inner_tol=1e-13, inner_max=2000)
        diffs.append(
            ff.l2_norm(ff.GridFunction(grid16, a.u.values - b.u.values))
        )
    orders = [np.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


@pytest.fixture(scope="module")
def well_cfg():
    """Context and depth search of the shipped ``well.cfg``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(root, "configs", "well.cfg"))
    ctx = scenarios._context(cfg)
    return ctx, scenarios._geometry(cfg, ctx)


def test_imex_moves_a_state_below_inner_tol(well_cfg):
    # ||r(u)|| ~ 8e-9 is below inner_tol, and the step still contracts u
    ctx, _ = well_cfg
    dt = 0.01
    st = ff.make_state(ff.standard_bump(ctx.grid).scaled(1e-9), ctx)
    explicit, imex = (ff.l2_norm(step(st, dt, ctx).u) / st.report.l2
                      for step in (ff.step_explicit, ff.step_imex))
    assert explicit == pytest.approx(0.93213, abs=1e-5)
    assert abs(imex - explicit) <= dt


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 1e-1])
def test_imex_step_from_the_well_minimizer_converges(well_cfg, dt):
    # ||r(u)|| ~ 1e-6 against ||A(u)|| ~ 55: inner_tol * ||r(u)|| is below
    # the roundoff of the residual, which the target must not ask for
    ctx, geom = well_cfg
    st = ff.make_state(geom.minimizer, ctx)
    new = ff.step_imex(st, dt, ctx)
    assert new.report.energy <= st.report.energy + 1e-10


#: power-table sweeps per step_imex when each Newton trial called ``apply``,
#: each iteration swept again for its Jacobian, and the new state's
#: gradient was swept again
_SEPARATE_SWEEPS = {("ctx16", 1e-3): 5, ("ctx16_var", 1e-3): 7,
                    ("ctx16", 5e-2): 5, ("ctx16_var", 5e-2): 9}


@pytest.mark.parametrize("name", ["ctx16", "ctx16_var"])
@pytest.mark.parametrize("dt", [1e-3, 5e-2])
def test_imex_step_sweep_count(name, dt, grid16, request, monkeypatch):
    # Newton on the proximal residual: one linearize sweep per trial, whose
    # values also give the new state's gradient and whose Jacobian the next
    # solve's, plus the new state's energy.  A state from make_state carries
    # no Jacobian, so its step sweeps once at u; a state that a step made
    # carries its trial's Jacobian, so its step sweeps nothing at u
    ctx = request.getfixturevalue(name)
    st = ff.make_state(ff.standard_bump(grid16).scaled(0.5), ctx)
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for meth in ("apply", "pair_stats", "linearize"):
        monkeypatch.setattr(ff.OperatorContext, meth,
                            counting(meth, getattr(ff.OperatorContext, meth)))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    new = ff.step_imex(st, dt, ctx)
    sweeps = calls["apply"] + calls["pair_stats"]
    assert calls["pair_stats"] == 1
    assert sweeps < _SEPARATE_SWEEPS[name, dt]
    assert 1 <= calls["solve"] == calls["linearize"] - 1 == calls["apply"] - 1
    calls.clear()
    ff.step_imex(new, dt, ctx)
    assert 1 <= calls["solve"] == calls["linearize"] == calls["apply"]
    # the gradient and Jacobian kept from the last trial are those a fresh
    # sweep gives
    assert np.array_equal(new.grad.values, ff.energy_gradient(new.u, ctx).values)
    assert np.array_equal(new.jac, ctx.linearize(new.u.values)[1])


@pytest.mark.parametrize("name", ["ctx16", "ctx16_var"])
def test_imex_retry_after_a_rejected_step_reuses_the_states_jacobian(name, grid16, request,
                                                                      monkeypatch):
    # run discards a step whose energy rose and retries at dt / 2: the retry
    # sweeps nothing at the state, leaves its Jacobian as formed, and gives
    # the bits of the same step from a fresh state
    ctx = request.getfixturevalue(name)
    st = ff.step_imex(ff.make_state(ff.standard_bump(grid16).scaled(0.5), ctx), 5e-2, ctx)
    kept = st.jac.copy()
    ff.step_imex(st, 0.4, ctx)  # the rejected step
    swept = []
    linearize = ff.OperatorContext.linearize

    def recorded(self, vals):
        swept.append(vals.tobytes())
        return linearize(self, vals)

    monkeypatch.setattr(ff.OperatorContext, "linearize", recorded)
    retry = ff.step_imex(st, 0.2, ctx)
    assert swept and st.u.values.tobytes() not in swept
    assert np.array_equal(st.jac, kept)
    fresh = ff.make_state(ff.GridFunction(grid16, st.u.values.copy()), ctx, t=st.t)
    again = ff.step_imex(fresh, 0.2, ctx)
    assert retry.t == again.t and retry.report == again.report
    for a, b in ((retry.u.values, again.u.values), (retry.grad.values, again.grad.values),
                 (retry.jac, again.jac), (st.jac, fresh.jac)):
        assert a.tobytes() == b.tobytes()


def test_imex_stalls_without_inner_iterations(ctx16, grid16):
    st = ff.make_state(ff.standard_bump(grid16).scaled(0.5), ctx16)
    with pytest.raises(InnerSolveStalled):
        ff.step_imex(st, 1e-3, ctx16, inner_max=0)


def test_stalled_inner_solve_halves_dt_to_underflow(ctx16, geom16, monkeypatch):
    evolution = importlib.import_module("fracflow.evolution")
    dts = []

    def stall(state, dt, ctx, **kwargs):
        dts.append(dt)
        raise InnerSolveStalled("proximal residual above tolerance")

    monkeypatch.setattr(evolution, "step_imex", stall)
    ctl = _control(dt_init=1e-3, dt_min=1e-6, scheme=SCHEME_IMEX)
    rec = ff.run(geom16.minimizer.scaled(0.5), ctl, ctx16, geom16)
    assert rec.termination == ff.STEP_UNDERFLOW
    assert len(rec.samples) == 1
    assert dts[0] == 1e-3
    assert all(b == a / 2.0 for a, b in zip(dts, dts[1:]))
    assert dts[-1] >= ctl.dt_min > dts[-1] / 2.0


def test_run_evaluates_each_state_once(ctx16, geom16, monkeypatch):
    # a state carries its energy report and gradient, which the next step
    # and the sample reuse: N accepted explicit steps sweep the pair table
    # N + 1 times for the energies and N + 1 times for the gradients
    calls = Counter()
    for name in ("apply", "pair_stats"):
        def counted(self, vals, _name=name, _orig=getattr(ff.OperatorContext, name)):
            calls[_name] += 1
            return _orig(self, vals)

        monkeypatch.setattr(ff.OperatorContext, name, counted)
    ctl = _control(dt_init=1e-3, dt_max=1e-3, t_final=0.02)
    rec = ff.run(geom16.minimizer.scaled(0.5), ctl, ctx16, geom16)
    assert rec.termination == ff.REACHED_FINAL_TIME
    n = len(rec.samples) - 1
    assert n == 20
    assert calls == {"apply": n + 1, "pair_stats": n + 1}


def test_run_evaluates_the_probe_exponent_once(ctx16, geom16):
    calls = []

    def probe(x):
        calls.append(np.shape(x))
        return 2.0 + 0.1 * x**2

    ctl = _control(dt_init=1e-3, dt_max=1e-3, t_final=0.005)
    rec = ff.run(geom16.minimizer.scaled(0.5), ctl, ctx16, geom16, r_probe=probe)
    assert len(rec.samples) == 6
    assert calls == [(ctx16.grid.n,)]


def test_well_trajectory_decays_and_stays_in_well(ctx16, geom16):
    u0 = geom16.minimizer.scaled(0.5)
    # the coarse-collar fixture grid decays slower than the shipped default,
    # so integrate to t = 2 for the equilibrium criteria
    rec = ff.run(u0, _control(t_final=2.0), ctx16, geom16, r_probe=2.0)
    assert rec.termination == ff.REACHED_FINAL_TIME
    assert {s.well_class for s in rec.samples} == {ff.IN_WELL}
    energies = rec.column("energy")
    assert np.all(np.diff(energies) <= 1e-10)
    l2s = rec.column("l2")
    assert l2s[-1] <= 0.05 * l2s[0]
    # the flow settles toward the origin equilibrium
    assert rec.samples[-1].grad_l2 <= 0.01 * rec.samples[0].grad_l2
    # probe-space norm decays too
    assert rec.samples[-1].lux_r <= 0.05 * rec.samples[0].lux_r


def test_residual_convergence_order(ctx16, geom16):
    u0 = geom16.minimizer.scaled(0.5)
    orders = {}
    for scheme in ("explicit", SCHEME_IMEX):
        res = []
        for k in range(3):
            dt = 1e-3 / 2.0**k
            ctl = _control(dt_init=dt, dt_max=dt, t_final=0.25, scheme=scheme)
            rec = ff.run(u0, ctl, ctx16, geom16)
            res.append(rec.samples[-1].residual)
        orders[scheme] = [float(np.log2(res[i] / res[i + 1])) for i in range(2)]
        assert min(orders[scheme]) >= 0.8
    print("\nresidual orders:", orders)


def test_blowup_run_and_audit(ctx16, geom16):
    u0 = geom16.minimizer.scaled(2.0)
    e0 = ff.energy(u0, ctx16).energy
    assert e0 < 0.0
    rec = ff.run(u0, _control(t_final=10.0, max_steps=200_000), ctx16, geom16)
    assert rec.termination == ff.BLOWUP_CAP_HIT
    assert np.isfinite(rec.samples[-1].t)
    phis = rec.column("phi")
    assert np.all(np.diff(phis) > 0.0)
    audit = ff.blowup_inequality_audit(rec, ctx16.summary)
    assert audit.rate_constant > 0.0
    # one measured constant: the least row ratio past phi > 1
    assert audit.rate_constant == np.min(audit.ratio[audit.phi > 1.0])
    assert audit.t_max_extrapolated is not None
    assert audit.t_max_extrapolated >= rec.samples[-1].t
    assert len(audit.t) == len(rec.samples) - 1
    assert {s.well_class for s in rec.samples} == {ff.IN_EXTERIOR}


def test_audit_requires_negative_initial_energy(ctx16, geom16):
    # E(u0) is read from the record's first sample
    u0 = geom16.minimizer.scaled(0.5)
    rec = ff.run(u0, _control(t_final=0.01), ctx16, geom16)
    assert rec.samples[0].energy >= 0.0
    with pytest.raises(ff.AuditFailed, match=r"not run: E\(u0\) >= 0"):
        ff.blowup_inequality_audit(rec, ctx16.summary)


def test_step_underflow_termination(ctx16, grid16, geom16):
    # tiny amplitude keeps the flow in its linear regime, where a step far
    # beyond the stability limit amplifies the state and raises the energy;
    # dt_min == dt_init leaves no room to back off
    u0 = ff.first_sine_mode(grid16).scaled(1e-3)
    ctl = ff.StepControl(
        dt_init=0.5, dt_min=0.5, dt_max=0.5, t_final=10.0, max_steps=100
    )
    rec = ff.run(u0, ctl, ctx16, geom16)
    assert rec.termination == ff.STEP_UNDERFLOW
    assert len(rec.samples) == 1


def test_non_finite_step_has_its_own_termination(ctx16, geom16, monkeypatch):
    # float overflow before the cap is not a blow-up cap hit
    evolution = importlib.import_module("fracflow.evolution")

    def overflow(*args, **kwargs):
        raise NonFinite("state update produced non-finite values")

    monkeypatch.setattr(evolution, "step_explicit", overflow)
    rec = ff.run(geom16.minimizer.scaled(2.0), _control(), ctx16, geom16)
    assert rec.termination == ff.NON_FINITE
    assert len(rec.samples) == 1 and rec.samples[-1].t == 0.0


def test_max_steps_termination(ctx16, geom16):
    u0 = geom16.minimizer.scaled(0.5)
    rec = ff.run(u0, _control(t_final=1.0, max_steps=5), ctx16, geom16)
    assert rec.termination == ff.MAX_STEPS
    assert len(rec.samples) == 6  # initial sample plus five accepted steps


def test_record_row_count_matches_accepted_steps(ctx16, geom16):
    u0 = geom16.minimizer.scaled(0.5)
    rec = ff.run(u0, _control(t_final=0.05), ctx16, geom16)
    assert len(rec.samples) == 51  # t=0 plus 0.05/1e-3 accepted steps
    assert rec.samples[0].dt == 0.0
    assert all(s.dt == pytest.approx(1e-3) for s in rec.samples[1:])
