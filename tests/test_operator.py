import tracemalloc

import numpy as np
import pytest

import fracflow as ff
from fracflow.errors import ContextMismatch, GridMismatch, InvalidResolution, NotW0
from fracflow.nonlocal_operator import MAX_TABLE_ENTRIES, OperatorContext

from oracles import brute_apply, brute_i1, brute_sp_modular, brute_weak


@pytest.fixture(scope="module")
def small(field):
    dom = ff.Domain(-1.0, 1.0, 1.0)
    grid = ff.build_grid(dom, 4, 2)
    return grid, ff.build_context(grid, field, validate=False)


def test_apply_zero_is_zero(ctx16, grid16):
    out = ff.apply_operator(ff.GridFunction.zeros(grid16), ctx16)
    assert np.all(out.values == 0.0)


def test_apply_oddness(ctx16, grid16, rng):
    for _ in range(10):
        u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
        plus = ff.apply_operator(u, ctx16)
        minus = ff.apply_operator(u.scaled(-1.0), ctx16)
        assert np.allclose(minus.values, -plus.values, rtol=1e-13, atol=1e-13)


def test_apply_spike_vs_bruteforce(small, field):
    grid, ctx = small
    spike = np.zeros(grid.n)
    spike[2] = 1.0
    u = ff.GridFunction.from_interior(grid, spike)
    expected = brute_apply(grid, field, u.values)
    got = ff.apply_operator(u, ctx)
    assert np.allclose(got.interior, expected, rtol=1e-13)


def test_apply_random_vs_bruteforce(small, field, rng):
    grid, ctx = small
    u = ff.GridFunction.from_interior(grid, rng.standard_normal(grid.n))
    assert np.allclose(
        ff.apply_operator(u, ctx).interior, brute_apply(grid, field, u.values), rtol=1e-13
    )


def test_apply_requires_w0_and_matching_grid(ctx16, grid16, grid32, rng):
    with pytest.raises(NotW0):
        ff.apply_operator(ff.GridFunction(grid16, np.ones(grid16.n_total)), ctx16)
    u32 = ff.GridFunction.from_interior(grid32, rng.standard_normal(grid32.n))
    with pytest.raises(ContextMismatch):
        ff.apply_operator(u32, ctx16)


def test_weak_form_duality_identity(ctx16, grid16, rng):
    for _ in range(50):
        u = ff.GridFunction.from_interior(grid16, 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(grid16.n))
        rho = ff.gagliardo_modular(u, ctx16)
        assert abs(ff.weak_form(u, u, ctx16) - rho) <= 1e-12 * (1.0 + rho)


def test_weak_form_vs_bruteforce(small, field, rng):
    grid, ctx = small
    u = ff.GridFunction.from_interior(grid, rng.standard_normal(grid.n))
    v = ff.GridFunction.from_interior(grid, rng.standard_normal(grid.n))
    assert ff.weak_form(u, v, ctx) == pytest.approx(
        brute_weak(grid, field, u.values, v.values), rel=1e-13
    )


def test_weak_form_matches_operator_pairing(ctx16, grid16, rng):
    u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    v = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    lhs = ff.weak_form(u, v, ctx16)
    Lu = ff.apply_operator(u, ctx16)
    rhs = float(np.dot(Lu.interior * v.interior, grid16.interior_widths))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_weak_form_bilinear_in_v(ctx16, grid16, rng):
    u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    v = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    w = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    combo = ff.GridFunction.from_interior(grid16, 2.0 * v.interior - 3.0 * w.interior)
    lhs = ff.weak_form(u, combo, ctx16)
    rhs = 2.0 * ff.weak_form(u, v, ctx16) - 3.0 * ff.weak_form(u, w, ctx16)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    zero = ff.GridFunction.zeros(grid16)
    assert ff.weak_form(zero, v, ctx16) == 0.0


def test_weak_form_grid_mismatch(ctx16, grid16, grid32, rng):
    u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    v = ff.GridFunction.from_interior(grid32, rng.standard_normal(grid32.n))
    with pytest.raises(GridMismatch):
        ff.weak_form(u, v, ctx16)


def test_weak_form_is_directional_derivative_of_i1(ctx16, grid16, rng):
    # central-difference oracle for the nonlocal energy along direction v
    for _ in range(5):
        u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
        v = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
        scale = float(np.max(np.abs(u.interior))) or 1.0
        h = 1e-6 * scale
        plus = u.values + h * v.values
        minus = u.values - h * v.values
        fd = (ctx16.i1(plus) - ctx16.i1(minus)) / (2.0 * h)
        assert ff.weak_form(u, v, ctx16) == pytest.approx(fd, rel=1e-5)


def test_apply_is_gradient_of_i1(ctx16, grid16, rng):
    u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    Lu = ff.apply_operator(u, ctx16).interior
    scale = float(np.max(np.abs(u.interior)))
    h = 1e-6 * scale
    for k in range(grid16.n):
        up = u.values.copy()
        um = u.values.copy()
        up[grid16.interior_slice.start + k] += h
        um[grid16.interior_slice.start + k] -= h
        fd = (ctx16.i1(up) - ctx16.i1(um)) / (2.0 * h) / grid16.interior_widths[k]
        assert Lu[k] == pytest.approx(fd, rel=1e-5, abs=1e-8 * max(1.0, abs(fd)))


def test_i1_vs_bruteforce(small, field, rng):
    grid, ctx = small
    u = ff.GridFunction.from_interior(grid, rng.standard_normal(grid.n))
    assert ctx.i1(u.values) == pytest.approx(brute_i1(grid, field, u.values), rel=1e-13)


def test_monotonicity_gap(ctx16, grid16, rng):
    u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    assert ff.monotonicity_gap(u, u, ctx16) == 0.0
    for _ in range(30):
        a = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
        b = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
        gap = ff.monotonicity_gap(a, b, ctx16)
        wa = ff.weak_form(a, a, ctx16)
        wb = ff.weak_form(b, b, ctx16)
        assert gap >= -1e-12 * (1.0 + abs(wa) + abs(wb))
        assert gap > 0.0


def test_monotonicity_gap_linear_case(ctx16, grid16, rng):
    # p = 2 throughout: the gap is the weak form of the difference
    u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    v = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
    d = ff.GridFunction.from_interior(grid16, u.interior - v.interior)
    assert ff.monotonicity_gap(u, v, ctx16) == pytest.approx(
        ff.weak_form(d, d, ctx16), rel=1e-12
    )


def test_operator_bounded_on_modular_balls(ctx16, grid16, rng):
    # smoke property: the sup of |Lu|_inf over sampled modular balls is
    # finite and non-decreasing in the radius
    sups = []
    for radius in (0.5, 1.0, 2.0, 4.0):
        worst = 0.0
        for _ in range(20):
            u = ff.GridFunction.from_interior(grid16, rng.standard_normal(grid16.n))
            rho = ff.gagliardo_modular(u, ctx16)
            scale = (radius / rho) ** 0.5  # p = 2 homogeneity
            scaled = u.scaled(scale)
            worst = max(worst, float(np.max(np.abs(ff.apply_operator(scaled, ctx16).interior))))
        sups.append(worst)
        assert np.isfinite(worst)
    assert all(b >= a * (1 - 1e-12) for a, b in zip(sups, sups[1:]))


def test_convexity_inequality_examples():
    assert ff.convexity_inequality_check(1.0, 1.0, 2.0)
    # r=1, s=2, p=2: lhs = 2, rhs = 3
    assert ff.convexity_inequality_check(1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        ff.convexity_inequality_check(1.0, 2.0, 1.5)


def test_convexity_inequality_random_sweep(rng):
    r = rng.uniform(-10, 10, size=20000)
    s = rng.uniform(-10, 10, size=20000)
    p = rng.uniform(2.0, 5.0, size=20000)
    assert np.all(ff.convexity_inequality_check(r, s, p))


def _table_cases(field):
    """(grid, field, values) on a small grid: constant and variable p(x, y),
    each with a W0 vector and a vector with nonzero collar values."""
    dom = ff.Domain(-1.0, 1.0, 1.0)
    grid = ff.build_grid(dom, 6, 3)
    variable = ff.make_exponent_field(
        0.3, p_kind="affine-radial", p_params={"a": 2.0, "b": 0.3}, domain=dom
    )
    rng = np.random.default_rng(7)
    w0 = ff.GridFunction.from_interior(grid, rng.standard_normal(grid.n)).values
    collar = rng.standard_normal(grid.n_total)
    return [(grid, f, vals) for f in (field, variable) for vals in (w0, collar)]


def test_interior_row_table_matches_oracles(field):
    for grid, fld, u in _table_cases(field):
        ctx = OperatorContext(grid, fld)
        v = np.cos(3.0 * grid.centers)
        rho = ctx.sp_modular(u)
        assert rho == pytest.approx(brute_sp_modular(grid, fld, u), rel=1e-13)
        assert ctx.i1(u) == pytest.approx(brute_i1(grid, fld, u), rel=1e-13)
        assert np.allclose(ctx.apply(u), brute_apply(grid, fld, u), rtol=1e-13, atol=1e-14)
        assert ctx.weak(u, v) == pytest.approx(brute_weak(grid, fld, u, v), rel=1e-13)
        assert ctx.pair_stats(u) == (ctx.i1(u), rho)
        coeffs, exps = ctx.pair_coeffs(u)
        assert np.all(coeffs > 0.0) and coeffs.shape == exps.shape
        assert float(np.sum(coeffs)) == pytest.approx(rho, rel=1e-13)
        d = u - v
        assert ctx.gap(u, v) == pytest.approx(ctx.weak(u, d) - ctx.weak(v, d), rel=1e-12)
        lam, h = 0.8, 1e-6
        fd = (ctx.sp_modular(u / (lam + h)) - ctx.sp_modular(u / (lam - h))) / (2.0 * h)
        assert ctx.sp_dlambda(u, lam) == pytest.approx(fd, rel=1e-7)
        grad = ctx.sp_grad_interior(u, lam)
        widths = grid.interior_widths
        for k, cell in enumerate(range(grid.interior_slice.start, grid.interior_slice.stop)):
            up, um = u.copy(), u.copy()
            up[cell] += h
            um[cell] -= h
            fd = (ctx.sp_modular(up / lam) - ctx.sp_modular(um / lam)) / (2.0 * h * widths[k])
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_sweeps_return_fresh_arrays(ctx16, grid16, rng):
    u = rng.standard_normal(grid16.n_total)
    first = ctx16.apply(u)
    kept = first.copy()
    coeffs = ctx16.pair_coeffs(u)[0]
    kept_c = coeffs.copy()
    ctx16.apply(2.0 * u)
    ctx16.pair_stats(3.0 * u)
    ctx16.sp_grad_interior(u, 0.5)
    assert np.array_equal(first, kept) and np.array_equal(coeffs, kept_c)


def test_table_over_entry_cap_raises_before_allocating(field):
    n = 1024
    grid = ff.build_grid(ff.Domain(-1.0, 1.0, 8.0), n, MAX_TABLE_ENTRIES // n)
    assert grid.n * grid.n_total > MAX_TABLE_ENTRIES
    tracemalloc.start()
    try:
        with pytest.raises(InvalidResolution):
            ff.build_context(grid, field)
        with pytest.raises(InvalidResolution):
            OperatorContext(grid, field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.n * grid.n_total  # one float table would be 8x this
