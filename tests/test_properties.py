"""Property-based checks of the scalar inequalities and norm relations.

Complements the seeded sweeps elsewhere with randomized edge-case search
over the scalar building blocks.
"""

import numpy as np
import pytest

import fracflow as ff

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:  # pragma: no cover
    pytest.skip("hypothesis is required for property-based tests", allow_module_level=True)


FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
EXPONENTS = st.floats(min_value=2.0, max_value=8.0, allow_nan=False, allow_infinity=False)


@given(r=FINITE, s_val=FINITE, pbar=EXPONENTS)
def test_convexity_inequality_scalar(r, s_val, pbar):
    assert ff.convexity_inequality_check(r, s_val, pbar)


@given(s=st.floats(min_value=1e-6, max_value=0.499, allow_nan=False))
def test_critical_exponent_exceeds_pbar(s):
    field = ff.make_exponent_field(s)
    crit = ff.critical_exponent(field, 0.0)
    assert crit > 2.0  # always above the diagonal exponent for admissible s


@given(
    s1=st.floats(min_value=1e-3, max_value=0.24, allow_nan=False),
    delta=st.floats(min_value=1e-4, max_value=0.24, allow_nan=False),
)
def test_critical_exponent_monotone_in_s(s1, delta):
    a = ff.critical_exponent(ff.make_exponent_field(s1), 0.0)
    b = ff.critical_exponent(ff.make_exponent_field(s1 + delta), 0.0)
    assert b > a


@settings(max_examples=40, deadline=None)
@given(data=st.lists(st.floats(min_value=-10, max_value=10), min_size=16, max_size=16),
       scale=st.floats(min_value=1e-3, max_value=1e3))
def test_luxemburg_norm_is_homogeneous(data, scale):
    grid = ff.Grid(ff.Domain(-1.0, 1.0, 1.0), 16, 2)
    u = ff.GridFunction(grid, np.asarray(data))
    h = lambda x: 2.0 + x**2
    base = ff.luxemburg_norm(u, h).luxemburg_norm
    scaled = ff.luxemburg_norm(u.scaled(scale), h).luxemburg_norm
    assert scaled == pytest.approx(scale * base, rel=1e-7, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.lists(st.floats(min_value=-10, max_value=10), min_size=16, max_size=16))
def test_modular_zero_iff_norm_zero(data):
    grid = ff.Grid(ff.Domain(-1.0, 1.0, 1.0), 16, 2)
    u = ff.GridFunction(grid, np.asarray(data))
    rep = ff.luxemburg_norm(u, 2.5)
    # norm 0 iff u = 0: the modular of a tiny u may underflow to 0, but its
    # norm, at least max|u| * w**(1/2.5), does not while max|u| is a normal
    # float; below that the norm itself may round to 0
    top = float(np.max(np.abs(u.values)))
    if top == 0.0:
        assert rep.luxemburg_norm == 0.0 == rep.modular_value
    elif top >= np.finfo(float).tiny:
        assert rep.luxemburg_norm > 0.0
