import math

import numpy as np
import pytest

import fracflow as ff
from fracflow.errors import ContextMismatch, ExponentOutOfRange, RootFindFailed
from fracflow.modular import (_lebesgue_coeffs, _log_power_sum, _log_root, _norm,
                              conjugate_exponent_values)

from oracles import brute_sp_modular, naive_log_power_sum, zero_extended


def test_lebesgue_modular_basic(grid16):
    zero = ff.GridFunction.zeros(grid16)
    assert ff.lebesgue_modular(zero, 3.0) == 0.0
    one = ff.GridFunction(grid16, np.ones(grid16.n))
    assert ff.lebesgue_modular(one, lambda x: 2.0 + x**2) == pytest.approx(2.0, abs=1e-14)
    two = ff.GridFunction(grid16, 2.0 * np.ones(grid16.n))
    assert ff.lebesgue_modular(two, 3.0) == pytest.approx(16.0, abs=1e-12)


def test_lebesgue_modular_rejects_low_exponent(grid16):
    u = ff.GridFunction(grid16, np.ones(grid16.n))
    with pytest.raises(ExponentOutOfRange):
        ff.lebesgue_modular(u, 1.0)


def test_luxemburg_constant_exponent_closed_form(grid16):
    # rho_2(u) = 4 for u = sqrt(2) on (-1, 1), so the norm is 2
    u = ff.GridFunction(grid16, np.sqrt(2.0) * np.ones(grid16.n))
    rep = ff.luxemburg_norm(u, 2.0)
    assert rep.modular_value == pytest.approx(4.0, abs=1e-12)
    assert rep.luxemburg_norm == pytest.approx(2.0, abs=1e-9)


def test_luxemburg_unit_modular(grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    h = lambda x: 2.5 + 0.5 * np.sin(3 * x)
    # scale so the modular is exactly 1, then the norm must be 1 +- tol
    rep0 = ff.luxemburg_norm(u, h)
    u1 = u.scaled(1.0 / rep0.luxemburg_norm)
    rep1 = ff.luxemburg_norm(u1, h)
    assert rep1.modular_value == pytest.approx(1.0, abs=1e-9)
    assert rep1.luxemburg_norm == pytest.approx(1.0, abs=1e-9)


def test_luxemburg_zero(grid16):
    rep = ff.luxemburg_norm(ff.GridFunction.zeros(grid16), 2.0)
    assert rep.luxemburg_norm == 0.0 and rep.modular_value == 0.0
    assert rep.bisection_iterations == 0


def test_gagliardo_modular_spike_vs_bruteforce(field):
    # tiny grid, single unit spike: the whole pair table is hand-enumerable
    dom = ff.Domain(-1.0, 1.0, 1.0)
    grid = ff.Grid(dom, 4, 2)
    ctx = ff.OperatorContext(grid, field)
    assert ff.gagliardo_modular(ff.GridFunction.zeros(grid), ctx) == 0.0
    spike = np.zeros(grid.n)
    spike[1] = 1.0
    u = ff.GridFunction(grid, spike)
    expected = brute_sp_modular(grid, field, zero_extended(grid, u.values))
    got = ff.gagliardo_modular(u, ctx)
    assert got == pytest.approx(expected, rel=1e-14)


def test_gagliardo_modular_random_vs_bruteforce(field, rng):
    dom = ff.Domain(-1.0, 1.0, 1.0)
    grid = ff.Grid(dom, 6, 3)
    ctx = ff.OperatorContext(grid, field)
    u = ff.GridFunction(grid, rng.standard_normal(grid.n))
    expected = brute_sp_modular(grid, field, zero_extended(grid, u.values))
    assert ff.gagliardo_modular(u, ctx) == pytest.approx(expected, rel=1e-13)


def test_gagliardo_modular_homogeneity(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    assert ff.gagliardo_modular(u.scaled(2.0), ctx16) == pytest.approx(
        4.0 * ff.gagliardo_modular(u, ctx16), rel=1e-13
    )


def test_gagliardo_requires_matching_grid(ctx16, grid32, rng):
    u32 = ff.GridFunction(grid32, rng.standard_normal(grid32.n))
    with pytest.raises(ContextMismatch):
        ff.gagliardo_modular(u32, ctx16)


def test_gagliardo_seminorm_constant_exponent(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    rep = ff.gagliardo_seminorm(u, ctx16)
    assert rep.luxemburg_norm == pytest.approx(rep.modular_value ** 0.5, abs=1e-9)
    zero = ff.gagliardo_seminorm(ff.GridFunction.zeros(grid16), ctx16)
    assert zero.luxemburg_norm == 0.0
    unit = u.scaled(1.0 / rep.luxemburg_norm)
    rep1 = ff.gagliardo_seminorm(unit, ctx16)
    assert rep1.modular_value == pytest.approx(1.0, abs=1e-9)
    assert rep1.luxemburg_norm == pytest.approx(1.0, abs=1e-9)


def _norm_modular_envelopes(norm, modular, lo, hi, rtol=1e-8):
    """The two-sided envelope linking a Luxemburg-type norm and its modular."""
    a, b = norm**lo, norm**hi
    assert min(a, b) * (1 - rtol) - 1e-12 <= modular <= max(a, b) * (1 + rtol) + 1e-12
    if norm <= 1.0:
        # below unit norm the larger exponent gives the lower bound
        assert modular <= a * (1 + rtol) + 1e-12
        assert modular >= b * (1 - rtol) - 1e-12
    if norm >= 1.0:
        assert modular >= a * (1 - rtol) - 1e-12
        assert modular <= b * (1 + rtol) + 1e-12


@pytest.mark.parametrize("h_spec", [2.0, 3.5, lambda x: 2.0 + x**2])
def test_lebesgue_norm_modular_envelopes(grid16, h_spec, rng):
    hv = ff.modular.exponent_values(h_spec, grid16.interior_centers)
    lo, hi = float(np.min(hv)), float(np.max(hv))
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-2, 2)
        u = ff.GridFunction(grid16, scale * rng.standard_normal(grid16.n))
        rep = ff.luxemburg_norm(u, h_spec)
        _norm_modular_envelopes(rep.luxemburg_norm, rep.modular_value, lo, hi)
        # Newton in log-scale: exact first step for a constant exponent
        assert rep.bisection_iterations <= (2 if lo == hi else 8)
        assert rep.bracket[0] <= rep.luxemburg_norm <= rep.bracket[1]


def test_seminorm_modular_envelopes(ctx16, grid16, rng):
    lo = ctx16.summary.p_minus
    hi = ctx16.summary.p_plus
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-2, 1)
        u = ff.GridFunction(grid16, scale * rng.standard_normal(grid16.n))
        rep = ff.gagliardo_seminorm(u, ctx16)
        _norm_modular_envelopes(rep.luxemburg_norm, rep.modular_value, lo, hi)
        assert rep.bisection_iterations <= 2
        assert rep.bracket[0] <= rep.luxemburg_norm <= rep.bracket[1]


def test_seminorm_envelopes_variable_exponent(ctx16_var, grid16, rng):
    lo, hi = ctx16_var.summary.p_minus, ctx16_var.summary.p_plus
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-1, 1)
        u = ff.GridFunction(grid16, scale * rng.standard_normal(grid16.n))
        rep = ff.gagliardo_seminorm(u, ctx16_var)
        _norm_modular_envelopes(rep.luxemburg_norm, rep.modular_value, lo, hi)
        assert rep.bisection_iterations <= 8
        assert rep.bracket[0] <= rep.luxemburg_norm <= rep.bracket[1]


def test_norms_scale_exactly_far_from_unit(ctx16, ctx16_var, grid16, rng):
    # norms are 1-homogeneous; the log-scale root-find has no overflow
    # cliff between 1e-40 and 1e40
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    norms = [
        lambda v: ff.luxemburg_norm(v, 3.0),
        lambda v: ff.luxemburg_norm(v, lambda x: 2.0 + x**2),
        lambda v: ff.gagliardo_seminorm(v, ctx16),
        lambda v: ff.gagliardo_seminorm(v, ctx16_var),
    ]
    for norm in norms:
        base = norm(u).luxemburg_norm
        for c in (1e-40, 1e40):
            assert norm(u.scaled(c)).luxemburg_norm == pytest.approx(c * base, rel=1e-9)


def test_root_find_failure_is_typed(grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    e = 2.0 + grid16.interior_centers**2
    c = np.abs(u.values) ** e * grid16.interior_widths
    # a variable exponent needs more than the one evaluation at lam = 1
    with pytest.raises(RootFindFailed, match="within 1 evaluations"):
        _log_root(c, -e, np.ones(1), np.zeros(1), 1e-10, max_evals=1)
    assert _log_root(c, -e, np.ones(1), np.zeros(1), 1e-10)[1] <= 8
    # |u|^3 overflows: the bracket from lam = 1 is not finite
    huge = ff.GridFunction(grid16, 1e200 * np.ones(grid16.n))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RootFindFailed, match="not finite"):
            ff.luxemburg_norm(huge, 3.0)


def test_log_power_sum_is_bitwise_the_plain_formula(ctx16_var, grid16, rng):
    # the one-buffer form runs the same IEEE operations on the same operands
    for _ in range(20):
        scale = 10.0 ** rng.uniform(-3, 3)
        u = ff.GridFunction(grid16, scale * rng.standard_normal(grid16.n))
        c, e = ctx16_var.pair_coeffs(u.values)
        assert np.unique(e).size > 1
        logc = np.log(c)
        for exps in (e, -e):
            for t in (0.0, 1e-3, -0.7, 2.5, -40.0, 300.0, -300.0, 1e4):
                assert _log_power_sum(logc, exps, t) == naive_log_power_sum(logc, exps, t)


def test_one_term_norm_is_the_newton_root(ctx16, grid16, rng):
    # a constant exponent sums to one coefficient, whose norm is returned in
    # closed form after one evaluation; Newton from t = 0 gives the same bits
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3, 3)
        u = ff.GridFunction(grid16, scale * rng.standard_normal(grid16.n))
        for c, e in (_lebesgue_coeffs(u, 3.0), ctx16.pair_coeffs(u.values)):
            assert c.size == 1
            rep = _norm(c, e, 1e-10)
            t, evals, _ = _log_root(c, -e, np.ones(1), np.zeros(1), math.log1p(1e-10))
            assert rep.luxemburg_norm == math.exp(t)
            assert rep.bisection_iterations == 1 < evals
            assert rep.bracket == (rep.luxemburg_norm, rep.luxemburg_norm)


def test_scaled_modular_strictly_decreasing(grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    h = lambda x: 2.0 + x**2
    lams = np.logspace(-2, 2, 30)
    vals = [
        ff.lebesgue_modular(u.scaled(1.0 / lam), h)
        for lam in lams
    ]
    assert np.all(np.diff(vals) < 0)
    # a root bracket sees a sign change of modular - 1
    assert vals[0] > 1.0 > vals[-1]


def test_holder_inequality(grid16, rng):
    h = lambda x: 2.0 + x**2
    hv = ff.modular.exponent_values(h, grid16.interior_centers)
    hc = conjugate_exponent_values(h, grid16.interior_centers)
    const = 1.0 / float(np.min(hv)) + 1.0 / float(np.min(hc))
    printed_violations = 0
    for _ in range(200):
        u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        v = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        lhs = ff.integrate(ff.GridFunction(grid16, np.abs(u.values * v.values)))
        nu = ff.luxemburg_norm(u, h).luxemburg_norm
        nv = ff.luxemburg_norm(v, hc).luxemburg_norm
        assert lhs <= const * nu * nv * (1.0 + 1e-9)
        # the difference-of-reciprocals constant is recorded, not asserted
        if lhs > (1.0 / float(np.min(hv)) - 1.0 / float(np.max(hv))) * nu * nv:
            printed_violations += 1
    print("\nsamples above the difference-form constant: %d/200" % printed_violations)


def test_constant_exponent_lebesgue_coeffs_is_one_coefficient(grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    c, e = _lebesgue_coeffs(u, 3.0)
    assert c.shape == e.shape == (1,) and e[0] == 3.0
    direct = float(np.sum(np.abs(u.values) ** 3 * grid16.interior_widths))
    assert c[0] == pytest.approx(direct, rel=1e-13)
    assert _lebesgue_coeffs(u, lambda x: 2.0 + x**2)[0].size == grid16.n
    zero = _lebesgue_coeffs(ff.GridFunction.zeros(grid16), 3.0)
    assert zero[0].size == zero[1].size == 0
