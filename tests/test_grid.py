import numpy as np
import pytest

import fracflow as ff
from fracflow.errors import GridMismatch, InvalidResolution, NonFinite


def test_build_grid_cell_layout():
    g = ff.Grid(ff.Domain(-1.0, 1.0, 1.0), 4, 2)
    assert g.n_total == 8
    assert np.allclose(g.interior_widths, 0.5)
    # cells partition (-1, 1) without overlap; the collar is the operator's
    edges = np.concatenate([g.interior_centers - g.interior_widths / 2,
                            [g.interior_centers[-1] + g.interior_widths[-1] / 2]])
    assert edges[0] == -1.0 and edges[-1] == 1.0
    assert np.all(np.diff(edges) > 0)
    assert np.allclose(np.diff(edges), g.interior_widths)


def test_build_grid_asymmetric_widths():
    g = ff.Grid(ff.Domain(0.0, 1.0, 2.0), 10, 4)
    assert g.interior_centers.shape == g.interior_widths.shape == (10,)
    assert np.allclose(g.interior_widths, 0.1)
    assert np.allclose(g.interior_centers, np.linspace(0.05, 0.95, 10))
    assert (g.m, g.n_total) == (4, 18)


def test_build_grid_rejects_bad_resolution():
    dom = ff.Domain(-1.0, 1.0, 1.0)
    with pytest.raises(InvalidResolution):
        ff.Grid(dom, 0, 2)
    with pytest.raises(InvalidResolution):
        ff.Grid(dom, 8, 0)


def test_domain_default_radius():
    # the collar radius has one default, the config's domain.exterior_radius
    with pytest.raises(TypeError):
        ff.Domain(-1.0, 1.0)
    with pytest.raises(ValueError):
        ff.Domain(1.0, -1.0, 8.0)


def test_l2_norm_constants(grid16):
    zero = ff.GridFunction.zeros(grid16)
    assert ff.l2_norm(zero) == 0.0
    one = ff.GridFunction(grid16, np.ones(grid16.n))
    assert ff.l2_norm(one) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_quadrature_exact_for_cellwise_constant(grid16, rng):
    vals = rng.standard_normal(grid16.n)
    u = ff.GridFunction(grid16, vals)
    assert ff.integrate(u) == pytest.approx(float(np.dot(vals, grid16.interior_widths)), abs=1e-15)


def test_inner_product_symmetry_and_cauchy_schwarz(grid16, rng):
    for _ in range(25):
        u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        v = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
        assert ff.inner_product(u, v) == pytest.approx(ff.inner_product(v, u), rel=1e-14)
        assert abs(ff.inner_product(u, v)) <= ff.l2_norm(u) * ff.l2_norm(v) * (1 + 1e-12)
    assert ff.l2_norm(u) ** 2 == pytest.approx(ff.inner_product(u, u), rel=1e-14)


def test_grid_mismatch_raises(grid16, grid32, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    v = ff.GridFunction(grid32, rng.standard_normal(grid32.n))
    with pytest.raises(GridMismatch):
        ff.inner_product(u, v)


def test_w0_construction_enforces_exterior_zeros(grid16):
    # a grid function holds only its interior values: the collar is zero by
    # definition, so a vector over every cell is refused
    u = ff.GridFunction(grid16, np.ones(grid16.n))
    assert u.values.shape == (grid16.n,)
    assert u.scaled(3.0).values.shape == (grid16.n,)
    with pytest.raises(GridMismatch):
        ff.GridFunction(grid16, np.ones(grid16.n_total))


def test_grid_function_values_are_a_read_only_copy(grid16):
    vals = np.ones(grid16.n)
    u = ff.GridFunction(grid16, vals)
    vals[0] = 5.0
    assert u.values[0] == 1.0
    with pytest.raises(ValueError):
        u.values[0] = np.nan
    with pytest.raises(ValueError):
        u.values *= np.inf
    assert np.all(u.values == 1.0)


def test_overflowing_scale_is_refused_without_a_warning(grid16):
    # the suite turns RuntimeWarnings into errors, so an overflow warning
    # from the product would fail here before the NonFinite
    vals = np.zeros(grid16.n)
    vals[3] = 1e300
    with pytest.raises(NonFinite, match="grid function values must be finite"):
        ff.GridFunction(grid16, vals).scaled(1e10)


def test_csv_round_trip(tmp_path, grid16, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    path = tmp_path / "u.csv"
    ff.save_csv(u, path)
    back = ff.load_csv(grid16, path)
    assert np.array_equal(back.values, u.values)
    lines = path.read_text().splitlines()
    # one row per grid cell: the collar is not part of a grid function
    assert lines[0] == "center,width,value"
    assert len(lines) == 1 + grid16.n


def test_csv_layout_mismatch(tmp_path, grid16, grid32, rng):
    u = ff.GridFunction(grid16, rng.standard_normal(grid16.n))
    path = tmp_path / "u.csv"
    ff.save_csv(u, path)
    with pytest.raises(GridMismatch):
        ff.load_csv(grid32, path)
    # same cell count, other cells
    other = ff.Grid(ff.Domain(0.0, 1.0, 8.0), grid16.n, grid16.m)
    with pytest.raises(GridMismatch):
        ff.load_csv(other, path)
