import math
import tracemalloc

import numpy as np
import pytest

import fracflow as ff
from fracflow import nonlocal_operator
from fracflow.errors import ContextMismatch, GridMismatch, InvalidResolution
from fracflow.nonlocal_operator import MAX_TABLE_ENTRIES, OperatorContext

from oracles import (brute_apply, brute_i1, brute_sp_modular, brute_weak, pair_weights,
                     unfolded_build, zero_extended)


@pytest.fixture(scope="module")
def small(field):
    dom = ff.Domain(-1.0, 1.0, 1.0)
    grid = ff.Grid(dom, 4, 2)
    return grid, ff.OperatorContext(grid, field)


def test_apply_zero_is_zero(ctx16, grid16):
    out = ff.apply_operator(ff.GridFunction.zeros(grid16), ctx16)
    assert np.all(out.values == 0.0)


def test_apply_oddness(ctx16, grid16, rng):
    for _ in range(10):
        u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        plus = ff.apply_operator(u, ctx16)
        minus = ff.apply_operator(u.scaled(-1.0), ctx16)
        assert np.allclose(minus.values, -plus.values, rtol=1e-13, atol=1e-13)


def test_apply_spike_vs_bruteforce(small, field):
    grid, ctx = small
    spike = np.zeros(grid.n)
    spike[2] = 1.0
    u = ff.GridFunction(grid, spike)
    expected = brute_apply(grid, field, zero_extended(grid, u.values))
    got = ff.apply_operator(u, ctx)
    assert np.allclose(got.values, expected, rtol=1e-13)


def test_apply_random_vs_bruteforce(small, field, rng):
    grid, ctx = small
    u = ff.GridFunction(grid, rng.standard_normal(grid.n))
    expected = brute_apply(grid, field, zero_extended(grid, u.values))
    assert np.allclose(ff.apply_operator(u, ctx).values, expected, rtol=1e-13)


def _closed_form_apply(s, n, radius, m):
    """(cell centers, apply plus the analytic tail beyond the collar, target)
    for p = 2 and u = (1 - x^2)_+^s on (-1, 1), where (-Delta)^s u =
    Gamma(1 + 2s) (Getoor 1961).  ``apply`` omits C_{1,s} and sums ordered
    pairs, so its target is 2 Gamma(1 + 2s) / C_{1,s}; beyond the collar
    u = 0, so cell i's tail is 2 u_i ((x_i - a + R)^-2s + (b + R - x_i)^-2s)
    / (2s)."""
    dom = ff.Domain(-1.0, 1.0, radius)
    grid = ff.Grid(dom, n, m)
    ctx = ff.OperatorContext(grid, ff.make_exponent_field(s, domain=dom))
    x = grid.interior_centers
    u = (1.0 - x**2) ** s
    tail = u * ((x + 1.0 + radius) ** (-2 * s) + (1.0 + radius - x) ** (-2 * s)) / s
    c1s = s * 4**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * math.gamma(1.0 - s))
    return x, ctx.apply(u) + tail, 2.0 * math.gamma(1.0 + 2 * s) / c1s


@pytest.mark.parametrize("s, target", [(0.4, 6.606532), (0.3, 7.766444)])
def test_apply_matches_the_closed_form_with_an_exact_tail(s, target):
    """Max relative error of ``apply`` plus the exact tail over |x| <= 1/2,
    m = 4n cells per collar side, as measured: 6.61e-3, 2.85e-3, 1.22e-3
    at n = 32, 64, 128 for s = 0.4 (order 1.21-1.23) and 2.98e-3, 1.20e-3,
    4.78e-4 for s = 0.3 (order 1.32).

    The collar alone, with no tail, misses by 13.45% (s = 0.4) and 23.14%
    (s = 0.3) at n = 32, R = 8, and refining n does not help: that error
    is the truncation's, stated here and not gated."""
    errors = []
    for n in (32, 64, 128):
        x, got, exact = _closed_form_apply(s, n, 8.0, 4 * n)
        assert exact == pytest.approx(target, abs=5e-7)
        mid = np.abs(x) <= 0.5
        errors.append(float(np.max(np.abs(got[mid] / exact - 1.0))))
    assert errors[0] < 1e-2
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 1.0), errors
    # the tail makes R immaterial: R = 32 with cells of the same width
    _, far, exact = _closed_form_apply(s, 32, 32.0, 512)
    x, near, _ = _closed_form_apply(s, 32, 8.0, 128)
    mid = np.abs(x) <= 0.5
    assert np.max(np.abs(far[mid] - near[mid])) <= 1e-5 * exact


def test_apply_requires_matching_grid(ctx16, grid32, rng):
    u32 = ff.GridFunction(grid32, rng.standard_normal(grid32.n))
    with pytest.raises(ContextMismatch):
        ff.apply_operator(u32, ctx16)


def test_grid_identity_is_domain_n_and_m(ctx16, grid16, rng):
    # the interior cells alone do not identify a grid: the collar radius and
    # count set the operator, so grids that differ only there are apart
    dom = grid16.domain
    vals = rng.standard_normal(grid16.n)
    for other in (
        ff.Grid(ff.Domain(dom.a, dom.b, 2.0 * dom.exterior_radius), grid16.n, grid16.m),
        ff.Grid(dom, grid16.n, 2 * grid16.m),
    ):
        assert np.array_equal(other.interior_centers, grid16.interior_centers)
        assert not other.compatible_with(grid16)
        with pytest.raises(ContextMismatch):
            ff.apply_operator(ff.GridFunction(other, vals), ctx16)
    twin = ff.Grid(ff.Domain(dom.a, dom.b, dom.exterior_radius), grid16.n, grid16.m)
    assert twin is not grid16 and twin.compatible_with(grid16)
    u = ff.GridFunction(twin, vals)
    assert np.array_equal(ff.apply_operator(u, ctx16).values, ctx16.apply(vals))


def test_weak_form_duality_identity(ctx16, grid16, rng):
    for _ in range(50):
        u = ff.GridFunction(grid16, 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(grid16.n))
        rho = ff.gagliardo_modular(u, ctx16)
        assert abs(ff.weak_form(u, u, ctx16) - rho) <= 1e-12 * (1.0 + rho)


def test_weak_form_vs_bruteforce(small, field, ctx16_var, rng):
    # constant p = 2, then variable p(x, y)
    grid = small[0]
    for fld in (field, ctx16_var.field):
        ctx = ff.OperatorContext(grid, fld)
        u = ff.GridFunction(grid, rng.standard_normal(grid.n))
        v = ff.GridFunction(grid, rng.standard_normal(grid.n))
        expected = brute_weak(
            grid, fld, zero_extended(grid, u.values), zero_extended(grid, v.values)
        )
        assert ff.weak_form(u, v, ctx) == pytest.approx(expected, rel=1e-13)


def test_weak_form_matches_operator_pairing(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    v = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    lhs = ff.weak_form(u, v, ctx16)
    Lu = ff.apply_operator(u, ctx16)
    rhs = float(np.dot(Lu.values * v.values, grid16.interior_widths))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_weak_form_bilinear_in_v(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    v = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    w = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    combo = ff.GridFunction(grid16, 2.0 * v.values - 3.0 * w.values)
    lhs = ff.weak_form(u, combo, ctx16)
    rhs = 2.0 * ff.weak_form(u, v, ctx16) - 3.0 * ff.weak_form(u, w, ctx16)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    zero = ff.GridFunction.zeros(grid16)
    assert ff.weak_form(zero, v, ctx16) == 0.0


def test_weak_form_grid_mismatch(ctx16, grid16, grid32, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    v = ff.GridFunction(grid32, rng.standard_normal(grid32.n))
    with pytest.raises(GridMismatch):
        ff.weak_form(u, v, ctx16)


def test_weak_form_is_directional_derivative_of_i1(ctx16, grid16, rng):
    # central-difference oracle for the nonlocal energy along direction v
    for _ in range(5):
        u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        v = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        scale = float(np.max(np.abs(u.values))) or 1.0
        h = 1e-6 * scale
        plus = u.values + h * v.values
        minus = u.values - h * v.values
        fd = (ctx16.i1(plus) - ctx16.i1(minus)) / (2.0 * h)
        assert ff.weak_form(u, v, ctx16) == pytest.approx(fd, rel=1e-5)


def test_apply_is_gradient_of_i1(ctx16, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    Lu = ff.apply_operator(u, ctx16).values
    scale = float(np.max(np.abs(u.values)))
    h = 1e-6 * scale
    for k in range(grid16.n):
        up = u.values.copy()
        um = u.values.copy()
        up[k] += h
        um[k] -= h
        fd = (ctx16.i1(up) - ctx16.i1(um)) / (2.0 * h) / grid16.interior_widths[k]
        assert Lu[k] == pytest.approx(fd, rel=1e-5, abs=1e-8 * max(1.0, abs(fd)))


def test_i1_vs_bruteforce(small, field, rng):
    grid, ctx = small
    u = ff.GridFunction(grid, rng.standard_normal(grid.n))
    expected = brute_i1(grid, field, zero_extended(grid, u.values))
    assert ctx.i1(u.values) == pytest.approx(expected, rel=1e-13)


def _near(u, rng):
    """u + 1e-8 d for a standard normal d: a pair whose gap is ~1e-16 of
    its pairings."""
    return ff.GridFunction(u.grid, u.values + 1e-8 * rng.standard_normal(u.grid.n))


def test_monotonicity_gap(small, ctx16, ctx16_var, grid16, rng):
    # constant p = 2, then variable p(x, y)
    for ctx in (ctx16, ctx16_var):
        u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        assert ff.monotonicity_gap(u, u, ctx) == 0.0
        for k in range(40):
            a = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
            # the last ten pairs are near-equal: positive only up to roundoff
            near = k >= 30
            b = _near(a, rng) if near else ff.GridFunction(grid16, rng.standard_normal(grid16.n))
            gap = ff.monotonicity_gap(a, b, ctx)
            wa = ff.weak_form(a, a, ctx)
            wb = ff.weak_form(b, b, ctx)
            assert gap >= -1e-12 * (1.0 + abs(wa) + abs(wb))
            assert gap > 0.0 or near
    # variable p against the oracle: <A(a), a - b> - <A(b), a - b>
    grid = small[0]
    fld = ctx16_var.field
    a, b = rng.standard_normal(grid.n), rng.standard_normal(grid.n)
    a0, b0 = zero_extended(grid, a), zero_extended(grid, b)
    expected = brute_weak(grid, fld, a0, a0 - b0) - brute_weak(grid, fld, b0, a0 - b0)
    assert ff.OperatorContext(grid, fld).gap(a, b) == pytest.approx(expected, rel=1e-12)


def test_monotonicity_gap_linear_case(ctx16, grid16, rng):
    # p = 2 throughout: the gap is the weak form of the difference, also
    # for a near-equal pair
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    for v, rel in ((ff.GridFunction(grid16, rng.standard_normal(grid16.n)), 1e-12),
                   (_near(u, rng), 1e-6)):
        d = ff.GridFunction(grid16, u.values - v.values)
        assert ff.monotonicity_gap(u, v, ctx16) == pytest.approx(
            ff.weak_form(d, d, ctx16), rel=rel
        )


def test_operator_bounded_on_modular_balls(ctx16, grid16, rng):
    # smoke property: the sup of |Lu|_inf over sampled modular balls is
    # finite and non-decreasing in the radius
    sups = []
    for radius in (0.5, 1.0, 2.0, 4.0):
        worst = 0.0
        for _ in range(20):
            u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
            rho = ff.gagliardo_modular(u, ctx16)
            scale = (radius / rho) ** 0.5  # p = 2 homogeneity
            scaled = u.scaled(scale)
            worst = max(worst, float(np.max(np.abs(ff.apply_operator(scaled, ctx16).values))))
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


def _unfolded_case():
    """(grid, field) with affine-radial p on an off-centre interval whose
    collar cells all differ in |y|, so no two exterior exponent columns
    are equal."""
    dom = ff.Domain(-1.0, 2.0, 8.0)
    field = ff.make_exponent_field(0.3, p=(2.0, 0.3), domain=dom)
    return ff.Grid(dom, 6, 3), field


def _table_cases(field):
    """(grid, field, values) on small grids: constant p, variable p(x, y)
    on a symmetric collar (mirror columns fold) and on an off-centre one
    (nothing folds), constant p with collar cells wider than the interior
    cells, and variable p on an off-centre collar wide enough that some
    collar cells have a mirror (groups of two and of one), each with
    random interior values."""
    dom = ff.Domain(-1.0, 1.0, 1.0)
    grid = ff.Grid(dom, 6, 3)
    variable = ff.make_exponent_field(0.3, p=(2.0, 0.3), domain=dom)
    off_grid, off_field = _unfolded_case()
    rng = np.random.default_rng(7)
    return [
        (g, f, rng.standard_normal(g.n))
        for g, f in ((grid, field), (grid, variable), (off_grid, off_field),
                     (ff.Grid(ff.Domain(0.0, 1.0, 2.0), 10, 4), field),
                     (ff.Grid(off_grid.domain, 6, 8), off_field))
    ]


def test_interior_row_table_matches_oracles(field):
    for grid, fld, u in _table_cases(field):
        ctx = OperatorContext(grid, fld)
        v = np.cos(3.0 * grid.interior_centers)
        u0, v0 = zero_extended(grid, u), zero_extended(grid, v)
        rho = ctx.sp_modular(u)
        assert rho == pytest.approx(brute_sp_modular(grid, fld, u0), rel=1e-13)
        assert ctx.i1(u) == pytest.approx(brute_i1(grid, fld, u0), rel=1e-13)
        assert np.allclose(ctx.apply(u), brute_apply(grid, fld, u0), rtol=1e-13, atol=1e-14)
        assert ctx.weak(u, v) == pytest.approx(brute_weak(grid, fld, u0, v0), rel=1e-13)
        assert ctx.pair_stats(u) == (ctx.i1(u), rho)
        side = ctx.pair_coeffs(u)
        if isinstance(ctx.P, float):
            assert side.out is None
        else:
            assert side.logc.shape == side.e.shape == side.out.shape
        assert math.exp(side.log_sum(0.0)[0]) == pytest.approx(rho, rel=1e-13)
        d = u - v
        assert ctx.gap(u, v) == pytest.approx(ctx.weak(u, d) - ctx.weak(v, d), rel=1e-12)
        lam, h = 0.8, 1e-6
        fd = (ctx.sp_modular(u / (lam + h)) - ctx.sp_modular(u / (lam - h))) / (2.0 * h)
        assert ctx.sp_dlambda(u, lam) == pytest.approx(fd, rel=1e-7)
        grad = ctx.sp_grad_interior(u / lam) / lam
        widths = grid.interior_widths
        for k in range(grid.n):
            up, um = u.copy(), u.copy()
            up[k] += h
            um[k] -= h
            fd = (ctx.sp_modular(up / lam) - ctx.sp_modular(um / lam)) / (2.0 * h * widths[k])
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        _assert_jacobian_matches_differences(ctx, u)


def _assert_jacobian_matches_differences(ctx, vals, h=1e-6):
    """``linearize``: its values are bitwise those of ``apply``, and its
    Jacobian matches central differences of ``apply`` in each interior
    value."""
    values, jac = ctx.linearize(vals)
    assert np.array_equal(values, ctx.apply(vals))
    assert jac.shape == (ctx.grid.n, ctx.grid.n)
    _assert_close_to(jac, _differences_of_apply(ctx, vals, h))


def _differences_of_apply(ctx, vals, h=1e-6):
    """Central differences of ``apply`` in each interior value, as columns."""
    fd = np.empty((ctx.grid.n, ctx.grid.n))
    for k in range(ctx.grid.n):
        up, um = vals.copy(), vals.copy()
        up[k] += h
        um[k] -= h
        fd[:, k] = (ctx.apply(up) - ctx.apply(um)) / (2.0 * h)
    return fd


def _assert_close_to(jac, fd):
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-7 * float(np.max(np.abs(jac))))


@pytest.mark.parametrize("name", ["ctx16", "ctx16_var"])
def test_jacobian_matches_differences_of_apply(name, grid16, rng, request):
    # constant p = 2 and variable p(x, y)
    ctx = request.getfixturevalue(name)
    _assert_jacobian_matches_differences(ctx, rng.standard_normal(grid16.n))


@pytest.mark.parametrize("name", ["ctx16", "ctx16_var"])
def test_modular_gradient_pairs_to_the_lambda_derivative(name, grid16, rng, request):
    # Euler's identity for the p_ij-homogeneous pair terms: the modular's
    # gradient at v = u/lam paired with v is -lam d/dlam rho_sp(u/lam)
    ctx = request.getfixturevalue(name)
    u = rng.standard_normal(grid16.n)
    for lam in (0.3, 1.0, 2.5):
        v = u / lam
        pairing = float(np.dot(ctx.sp_grad_interior(v) * v, grid16.interior_widths))
        assert pairing == pytest.approx(-lam * ctx.sp_dlambda(u, lam), rel=1e-13)


def test_linearize_after_any_sweep_is_a_fresh_contexts(ctx16_var, grid16, rng):
    # no sweep leaves state that linearize reads: after each public sweep,
    # linearize(u) is bitwise that of a context that swept nothing
    ctx = ctx16_var
    u, other = rng.standard_normal((2, grid16.n))
    # every public sweep besides linearize, with its arguments
    sweeps = {
        "apply": (other,), "pair_stats": (other,), "pair_coeffs": (other,),
        "sp_modular": (other,), "i1": (other,), "sp_dlambda": (other, 0.7),
        "sp_grad_interior": (other / 0.7,), "weak": (other, 2.0 * other),
        "gap": (other, 2.0 * other),
    }
    public = {name for name in dir(OperatorContext)
              if not name.startswith("_") and callable(getattr(OperatorContext, name))}
    assert public - {"linearize"} == set(sweeps)
    values, jac = OperatorContext(grid16, ctx.field).linearize(u)
    _assert_close_to(jac, _differences_of_apply(ctx, u))
    for name, args in sweeps.items():
        result = getattr(ctx, name)(*args)
        if name == "pair_coeffs":
            result.log_sum(0.3)  # the side's power sum writes the second buffer
        again = ctx.linearize(u)
        assert _bits(again[0]) == _bits(values) and _bits(again[1]) == _bits(jac)


def test_sweeps_return_fresh_arrays(ctx16, grid16, rng):
    u = rng.standard_normal(grid16.n)
    first = ctx16.apply(u)
    lin = ctx16.linearize(u)
    kept = [a.copy() for a in (first, *lin)]
    # a constant-p pair side holds its one term in floats of its own
    side = ctx16.pair_coeffs(u)
    kept_c = (side.logc, side.e)
    ctx16.apply(2.0 * u)
    ctx16.pair_stats(3.0 * u)
    ctx16.sp_grad_interior(u / 0.5)
    ctx16.apply(4.0 * u)
    ctx16.linearize(4.0 * u)
    assert all(np.array_equal(a, k) for a, k in zip((first, *lin), kept))
    assert side.out is None and (side.logc, side.e) == kept_c


def test_table_over_entry_cap_raises_before_allocating(field):
    n = 1024
    grid = ff.Grid(ff.Domain(-1.0, 1.0, 8.0), n, MAX_TABLE_ENTRIES // n)
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


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("block_entries", [nonlocal_operator.BLOCK_ENTRIES, 100, 25, 1])
def test_blocked_build_is_bitwise_the_unfolded_oracle(block_entries, ctx16, ctx16_var,
                                                      monkeypatch):
    # one block per table, then blocks of a few rows (uneven at the end),
    # then the fewest rows a block takes
    monkeypatch.setattr(nonlocal_operator, "BLOCK_ENTRIES", block_entries)
    off_grid, off_field = _unfolded_case()
    cases = (
        (ctx16.grid, ctx16.field),  # constant p: one group of 2m columns
        (ctx16_var.grid, ctx16_var.field),  # mirror pairs: m groups of two
        (off_grid, off_field),  # every collar cell its own group
        (ff.Grid(off_grid.domain, 6, 8), off_field),  # groups of two and of one
        # one group over the rows x < 0, split into groups of two and of
        # one by the rows x > 0
        (ff.Grid(off_grid.domain, 6, 8),
         ff.ExponentField(p=lambda x, y: 2.0 + 0.1 * np.maximum(x, 0.0) * y**2,
                          q=off_field.q, s=off_field.s)),
    )
    for grid, field in cases:
        ctx = OperatorContext(grid, field)
        P, row_w, pair_w = unfolded_build(grid, field)
        assert _bits(ctx.row_w) == _bits(row_w)
        assert _bits(pair_weights(ctx)) == _bits(pair_w)
        assert (type(ctx.P) is float) == bool(np.all(P == P.flat[0]))
        assert _bits(np.broadcast_to(ctx.P, P.shape).copy()) == _bits(P)
    if block_entries < nonlocal_operator.BLOCK_ENTRIES:
        assert len(nonlocal_operator._row_blocks(ctx16.grid.n, ctx16.grid.n_total)) > 1


def test_build_peaks_below_one_unfolded_table(field):
    # constant p with a collar far wider than the interior: the kept tables
    # are (64, 65), the unfolded one (64, 8256)
    grid = ff.Grid(ff.Domain(-1.0, 1.0, 8.0), 64, 4096)
    tracemalloc.start()
    try:
        ctx = OperatorContext(grid, field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.row_w.shape == (64, 65)
    assert peak < grid.n * grid.n_total * 8


def test_exterior_columns_fold_by_exponent_column(ctx16, ctx16_var, grid16):
    # constant p: one exterior column; y-even p on a symmetric collar: one
    # per mirror pair; no equal exponent columns: every collar cell kept
    n, m = grid16.n, grid16.m
    off_grid, off_field = _unfolded_case()
    unfolded = OperatorContext(off_grid, off_field)
    layouts = (
        (ctx16, (n, n + 1)),
        (ctx16_var, (n, n + m)),
        (unfolded, (off_grid.n, off_grid.n_total)),
    )
    for ctx, shape in layouts:
        assert ctx.row_w.shape == ctx._a.shape == ctx._b.shape == shape
        assert _bits(pair_weights(ctx)) == _bits(unfolded_build(ctx.grid, ctx.field)[2])
    assert type(ctx16.P) is float
    assert ctx16_var.P.shape == (n, n + m)
    assert unfolded.P.shape == (off_grid.n, off_grid.n_total)


def test_variable_p_context_keeps_four_tables(ctx16_var, domain):
    # P, row_w and the two work buffers; the exponents P - 2 form in a
    # block smaller than this table, and constant p keeps no P table
    grid = ff.Grid(domain, 64, 256)
    for field, kept in ((ctx16_var.field, ["P", "_a", "_b", "row_w"]),
                        (ff.make_exponent_field(0.4), ["_a", "_b", "row_w"])):
        ctx = OperatorContext(grid, field)
        size = ctx.row_w.size
        tables = [k for k, v in vars(ctx).items() if isinstance(v, np.ndarray) and v.size >= size]
        assert sorted(tables) == kept
        assert sum(v.nbytes for v in vars(ctx).values() if isinstance(v, np.ndarray)) < (
            (len(kept) + 1) * 8 * size)


@pytest.mark.parametrize("block_entries", [nonlocal_operator.BLOCK_ENTRIES, 25, 1])
def test_blocked_power_is_bitwise_the_whole_table(block_entries, ctx16_var, monkeypatch):
    # apply's |du|^(P - 2), formed a row block at a time, against the whole
    # table at once, in the values and in the Jacobian formed from them
    several = block_entries < nonlocal_operator.BLOCK_ENTRIES
    monkeypatch.setattr(nonlocal_operator, "BLOCK_ENTRIES", block_entries)
    off_grid, off_field = _unfolded_case()
    rng = np.random.default_rng(3)
    for grid, field in ((ctx16_var.grid, ctx16_var.field), (off_grid, off_field),
                        (ff.Grid(off_grid.domain, 7, 8), off_field)):
        ctx = OperatorContext(grid, field)
        assert (len(ctx._blocks) > 1) is several
        n = grid.n
        u = rng.standard_normal(n)
        cols = np.zeros(ctx.row_w.shape[1])
        cols[:n] = u
        du = cols[:n, None] - cols
        c = np.abs(du) ** (ctx.P - 2.0)
        values = 2.0 * np.einsum("ij,ij->i", c * du, ctx.row_w)
        cw = c * ctx.row_w
        pc = cw * ctx.P - cw
        jac = -2.0 * pc[:, :n]
        np.fill_diagonal(jac, 2.0 * pc.sum(axis=1))
        assert _bits(ctx.apply(u)) == _bits(values)
        lin = ctx.linearize(u)
        assert _bits(lin[0]) == _bits(values) and _bits(lin[1]) == _bits(jac)


def test_constant_p_pair_coeffs_is_one_coefficient(ctx16, ctx16_var, grid16, rng):
    u = rng.standard_normal(grid16.n)
    side = ctx16.pair_coeffs(u)
    # one term in floats, no array
    assert side.out is None and type(side.logc) is type(side.e) is float and side.e == ctx16.P
    assert math.exp(side.logc) == pytest.approx(ctx16.sp_modular(u), rel=1e-13)
    assert ctx16_var.pair_coeffs(u).logc.size > 1
    # the reaction exponent takes the same form: a float when constant
    assert type(ctx16.q_interior) is float and ctx16.q_interior == 3.0
    assert isinstance(ctx16_var.q_interior, np.ndarray)
    # the zero state's side has no positive coefficient, and seminorm 0
    zero = ff.GridFunction.zeros(grid16)
    for ctx in (ctx16, ctx16_var):
        side = ctx.pair_coeffs(zero.values)
        assert side.e_min > side.e_max and np.all(side.logc == -np.inf)
        assert ff.gagliardo_seminorm(zero, ctx).luxemburg_norm == 0.0
