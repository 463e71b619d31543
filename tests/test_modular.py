import math

import numpy as np
import pytest

import fracflow as ff
from fracflow.errors import ContextMismatch, ExponentOutOfRange, NonFinite, RootFindFailed
from fracflow.modular import (_UNIT, _lebesgue_side, _log_power_sum, _log_root, _norm,
                              conjugate_exponent_values)

from oracles import brute_sp_modular, naive_log_power_sum, zero_extended


def _unit_root(side, ftol, **kwargs):
    """(t, evaluations, bracket) of the root t = log(lam) of
    sum(c * lam**-e) = 1 for the side sum(c * lam**e), found in -t as
    ``_norm`` finds it."""
    s, evals, (lo, hi) = _log_root(_UNIT, side, ftol, **kwargs)
    return -s, evals, (-hi, -lo)


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


_GRID8 = ff.Grid(ff.Domain(-1.0, 1.0, 1.0), 8, 4)


def test_nan_cell_is_not_the_zero_function():
    # a nan or infinite cell is no grid function: it is refused where it
    # would enter, so no norm or modular meets a nan coefficient
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFinite):
            ff.GridFunction(_GRID8, np.r_[bad, np.ones(7)])
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        ff.GridFunction(_GRID8, np.r_[1e300, np.ones(7)]).scaled(1e10)
    # a true zero is dropped
    zero_cell = ff.GridFunction(_GRID8, np.r_[0.0, np.ones(7)])
    assert ff.luxemburg_norm(zero_cell, 3.0).luxemburg_norm > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_no_non_finite_state_reaches_a_modular_or_the_energy(bad):
    # a nan cell would give a nan energy and Gagliardo modular, and an
    # infinite one a RuntimeWarning in the constant-p sweep; the suite
    # turns RuntimeWarnings into errors, so this checks that the state is
    # refused before any sweep
    fields = (ff.make_exponent_field(0.4, domain=_GRID8.domain),
              ff.make_exponent_field(0.3, p=(2.0, 0.02), q=(3.0, 0.2), domain=_GRID8.domain))
    for f in fields:
        ctx = ff.OperatorContext(_GRID8, f)
        for measure in (ff.energy, ff.gagliardo_modular, ff.gagliardo_seminorm):
            with pytest.raises(NonFinite):
                measure(ff.GridFunction(_GRID8, np.r_[bad, np.ones(7)]), ctx)


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
    side = _lebesgue_side(u, 2.0 + grid16.interior_centers**2)
    # a variable exponent needs more than the one evaluation at lam = 1
    with pytest.raises(RootFindFailed, match="within 1 evaluations"):
        _unit_root(side, 1e-10, max_evals=1)
    assert _unit_root(side, 1e-10)[1] <= 8
    # |u|^3 overflows: the bracket from lam = 1 is not finite
    huge = ff.GridFunction(grid16, 1e200 * np.ones(grid16.n))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RootFindFailed, match="not finite"):
            ff.luxemburg_norm(huge, 3.0)


def _bits(pair):
    return np.array(pair, dtype=float).tobytes()


def test_log_power_sum_is_bitwise_the_plain_formula(ctx16, ctx16_var, grid16, rng):
    # the one-buffer form runs the same IEEE operations on the same operands,
    # and a one-term side's floats those on a one-element array
    for _ in range(20):
        scale = 10.0 ** rng.uniform(-3, 3)
        u = ff.GridFunction(grid16, scale * rng.standard_normal(grid16.n))
        side = ctx16_var.pair_coeffs(u.values)
        logc, e = side.logc, side.e
        assert np.unique(e).size > 1 and np.any(logc == -np.inf)
        for exps in (e, -e):
            for t in (0.0, 1e-3, -0.7, 2.5, -40.0, 300.0, -300.0, 1e4):
                got = _log_power_sum(logc, exps, t, np.empty(exps.shape))
                assert got == naive_log_power_sum(logc, exps, t)
        h = rng.uniform(1.01, 10.0)
        for one in (_lebesgue_side(u, h), ctx16.pair_coeffs(u.values)):
            assert one.out is None and type(one.logc) is type(one.e) is float
            logc, e = np.array([one.logc]), np.array([one.e])
            for t in (0.0, 1e-3, -1e-3, -0.7, 2.5, 40.0, -40.0, 300.0, -300.0, 1e4):
                assert _bits(one.log_sum(t)) == _bits(_log_power_sum(logc, e, t, np.empty(1)))


def test_one_term_norm_is_the_newton_root(ctx16, grid16, rng):
    # a constant exponent sums to one coefficient c, and Newton from t = 0
    # lands on the closed-form root log(c) / e, bit for bit
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3, 3)
        u = ff.GridFunction(grid16, scale * rng.standard_normal(grid16.n))
        for side in (_lebesgue_side(u, 3.0), ctx16.pair_coeffs(u.values)):
            assert side.out is None
            rep = _norm(side, 1e-10)
            t, evals, _ = _unit_root(side, math.log1p(1e-10))
            assert t == side.logc / side.e
            assert rep.luxemburg_norm == math.exp(t)
            assert rep.bisection_iterations == evals
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
    side = _lebesgue_side(u, 3.0)
    # one term in floats, no array
    assert side.out is None and type(side.logc) is type(side.e) is float and side.e == 3.0
    direct = float(np.sum(np.abs(u.values) ** 3 * grid16.interior_widths))
    assert math.exp(side.logc) == pytest.approx(direct, rel=1e-13)
    assert _lebesgue_side(u, lambda x: 2.0 + x**2).logc.size == grid16.n
    zero = _lebesgue_side(ff.GridFunction.zeros(grid16), 3.0)
    assert zero.e_min > zero.e_max and zero.logc == -math.inf
