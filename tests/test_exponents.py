import numpy as np
import pytest

import fracflow as ff
from fracflow.config import build_field, default_config
from fracflow.errors import AssumptionViolated, DegenerateDenominator

from oracles import pair_weights


def _constant_field(p=2.0, q=3.0, s=0.4, domain=None):
    return ff.make_exponent_field(s, p=(p, 0.0), q=(q, 0.0), domain=domain)


def test_constant_field_valid(domain):
    summary = ff.validate_assumptions(_constant_field(domain=domain), domain)
    assert summary.p_minus == summary.p_plus == 2.0
    assert summary.q_minus == summary.q_plus == 3.0
    # p*_s = 2 / (1 - 0.8) = 10, bound 6
    assert summary.min_critical_bound == pytest.approx(6.0, rel=1e-12)


def test_a4_violation(domain):
    with pytest.raises(AssumptionViolated) as exc:
        ff.validate_assumptions(_constant_field(s=0.6, domain=domain), domain)
    assert exc.value.name == "a4"


def test_a1_violation(domain):
    f = ff.ExponentField(p=lambda x, y: np.full(np.broadcast(x, y).shape, 1.5),
                         q=lambda x: np.full(np.shape(x), 3.0), s=0.4)
    with pytest.raises(AssumptionViolated) as exc:
        ff.validate_assumptions(f, domain)
    assert exc.value.name == "a1"
    assert exc.value.witness is not None


def test_a2_violation(domain):
    f = ff.ExponentField(p=lambda x, y: 2.0 + 0.001 * (np.asarray(x) - np.asarray(y)),
                         q=lambda x: np.full(np.shape(x), 3.0), s=0.1)
    with pytest.raises(AssumptionViolated) as exc:
        ff.validate_assumptions(f, domain)
    assert exc.value.name == "a2"


def test_a3_violations(domain):
    with pytest.raises(AssumptionViolated) as exc:
        ff.validate_assumptions(_constant_field(q=2.0, domain=domain), domain)
    assert exc.value.name == "a3"  # q- must exceed p+
    with pytest.raises(AssumptionViolated) as exc:
        ff.validate_assumptions(_constant_field(q=7.0, domain=domain), domain)
    assert exc.value.name == "a3"  # q+ must stay below p*_s/2 + 1 = 6


def test_symmetric_absolute_difference_field(domain):
    # |x - y| and |y - x| are the same map: identical extrema either way;
    # q = 2.2 fits between p+ = 2.18 and the s = 0.1 bound p*_s/2 + 1 = 2.25
    base = dict(q=lambda x: np.full(np.shape(x), 2.2), s=0.1)
    f1 = ff.ExponentField(p=lambda x, y: 2.0 + 0.01 * np.abs(np.asarray(x) - np.asarray(y)), **base)
    f2 = ff.ExponentField(p=lambda x, y: 2.0 + 0.01 * np.abs(np.asarray(y) - np.asarray(x)), **base)
    s1 = ff.validate_assumptions(f1, domain)
    s2 = ff.validate_assumptions(f2, domain)
    assert s1.p_minus == s2.p_minus and s1.p_plus == s2.p_plus


def test_symmetry_exact_on_random_pairs(domain, rng):
    f = ff.make_exponent_field(0.3, p=(2.0, 0.02), domain=domain)
    lo, hi = domain.a - domain.exterior_radius, domain.b + domain.exterior_radius
    x = rng.uniform(lo, hi, size=1000)
    y = rng.uniform(lo, hi, size=1000)
    assert np.all(f.p(x, y) == f.p(y, x))


def test_variable_field_extrema(domain):
    f = ff.make_exponent_field(0.3, p=(2.0, 0.02), q=(3.0, 0.2), domain=domain)
    summary = ff.validate_assumptions(f, domain)
    # p max: one leg pinned in [-1,1] (x^2 <= 1), other in [-9,9] (y^2 <= 81)
    assert summary.p_plus == pytest.approx(2.0 + 0.01 * 82.0, rel=1e-12)
    assert summary.p_minus == pytest.approx(2.0, rel=1e-12)
    assert summary.q_minus == pytest.approx(3.0, rel=1e-12)
    assert summary.q_plus == pytest.approx(3.2, rel=1e-12)


def test_declared_bounds_cross_check(domain):
    # declared p bounds that underestimate the sampled extrema must raise
    f = ff.ExponentField(
        p=lambda x, y: 2.0 + 0.01 * (np.asarray(x) ** 2 + np.asarray(y) ** 2) / 2.0,
        q=lambda x: np.full(np.shape(x), 3.0),
        s=0.3,
        p_bounds=(2.0, 2.1),
    )
    with pytest.raises(ValueError, match="underestimate"):
        ff.validate_assumptions(f, domain)


def test_curved_p_takes_value_as_a():
    cfg = default_config()
    cfg.exponents.s, cfg.exponents.p.kind, cfg.exponents.p.value = 0.3, "affine-radial", 2.5
    f = build_field(cfg)
    x = np.linspace(-9.0, 9.0, 7)
    np.testing.assert_array_equal(f.p(x[:, None], x[None, :]), np.full((7, 7), 2.5))
    assert f.p_bounds == (2.5, 2.5)


def test_constant_p_is_the_flat_affine_radial(grid16):
    # b = 0 declares (a, a) for every kind, with or without a domain
    cfg = default_config()
    const = build_field(cfg)
    cfg.exponents.p.kind, cfg.exponents.p.a, cfg.exponents.p.b = "affine-radial", 2.0, 0.0
    flat = build_field(cfg)
    assert const.p_bounds == flat.p_bounds == ff.make_exponent_field(0.4).p_bounds == (2.0, 2.0)
    c, f = ff.build_context(grid16, const), ff.build_context(grid16, flat)
    assert type(c.P) is float and type(f.P) is float and c.P == f.P
    np.testing.assert_array_equal(c.row_w, f.row_w)
    np.testing.assert_array_equal(pair_weights(c), pair_weights(f))


def test_critical_exponent_values(field):
    assert ff.critical_exponent(field, 0.0) == pytest.approx(10.0, rel=1e-12)
    tiny_s = ff.make_exponent_field(1e-9)
    assert ff.critical_exponent(tiny_s, 0.3) == pytest.approx(2.0, rel=1e-6)
    # at s = 0.5 and pbar = 2 the denominator N - s*pbar vanishes
    degenerate = ff.ExponentField(
        p=lambda x, y: np.full(np.broadcast(x, y).shape, 2.0),
        q=lambda x: np.full(np.shape(x), 3.0),
        s=0.5,
    )
    with pytest.raises(DegenerateDenominator):
        ff.critical_exponent(degenerate, 0.0)
    # an array x gives the scalar values elementwise, and fails if any does
    curved = ff.make_exponent_field(0.3, p=(2.0, 0.5))
    xs = np.linspace(-1.0, 1.0, 5)
    crit = ff.critical_exponent(curved, xs)
    assert type(ff.critical_exponent(curved, 0.5)) is float
    assert crit.tolist() == [ff.critical_exponent(curved, x) for x in xs]
    with pytest.raises(DegenerateDenominator, match="at x=-1.0"):
        ff.critical_exponent(ff.make_exponent_field(0.45, p=(2.0, 0.5)), xs)


def test_critical_exponent_increasing_in_s(field):
    svals = np.linspace(0.05, 0.45, 9)
    crits = [
        ff.critical_exponent(ff.make_exponent_field(s), 0.0) for s in svals
    ]
    assert np.all(np.diff(crits) > 0)


def test_summary_orderings(domain):
    s = ff.validate_assumptions(_constant_field(domain=domain), domain)
    assert s.p_minus >= 2.0
    assert s.q_minus > s.p_plus
    assert 0.4 * s.p_plus < 1.0
