"""1-D cell grids over a bounded interval with a truncated exterior collar.

The flow lives on W0, the functions that vanish outside the open interval
(a, b).  The grid carries exterior cells on a collar of finite width on
each side, so nonlocal pair sums can reach outside the interval; the
collar approximates the complement of the interval.  A grid function
stores only its n interior values: its collar value is zero by
definition, so every grid function is in W0 and sweeps take the n
interior values.  The CSV form of a grid function, with the collar as
rows of value 0, lives in ``report``.

Interval integrals (L^2 norms, inner products, modulars) use midpoint
quadrature over the interior cells.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidResolution

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
    "build_grid",
    "l2_norm",
    "inner_product",
    "integrate",
]


@dataclass(frozen=True)
class Domain:
    """Open interval (a, b) plus the width of the truncated exterior collar."""

    a: float
    b: float
    exterior_radius: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("domain requires b > a, got (%r, %r)" % (self.a, self.b))
        if not self.exterior_radius > 0:
            raise ValueError("exterior_radius must be positive")


class Grid:
    """Uniform cell partition of (a - R, b + R): collar | interior | collar.

    Cells are ordered left to right; the n interior cells occupy the
    contiguous index range ``interior_slice``.  Interior cells have width
    (b - a)/n, exterior cells width R/m (m cells per side).
    """

    def __init__(self, domain, n, m):
        if n < 4:
            raise InvalidResolution("need at least 4 interior cells, got %d" % n)
        if m < 1:
            raise InvalidResolution("need at least 1 exterior cell per side, got %d" % m)
        self.domain = domain
        self.n = int(n)
        self.m = int(m)
        a, b, radius = domain.a, domain.b, domain.exterior_radius
        h_int = (b - a) / n
        h_ext = radius / m
        left = a - radius + (np.arange(m) + 0.5) * h_ext
        mid = a + (np.arange(n) + 0.5) * h_int
        right = b + (np.arange(m) + 0.5) * h_ext
        self.centers = np.concatenate([left, mid, right])
        self.widths = np.concatenate(
            [np.full(m, h_ext), np.full(n, h_int), np.full(m, h_ext)]
        )
        self.interior_mask = np.zeros(self.n_total, dtype=bool)
        self.interior_mask[m : m + n] = True
        self.interior_slice = slice(m, m + n)

    @property
    def n_total(self):
        return self.n + 2 * self.m

    @property
    def interior_centers(self):
        return self.centers[self.interior_slice]

    @property
    def interior_widths(self):
        return self.widths[self.interior_slice]

    def compatible_with(self, other):
        return (
            self is other
            or (
                self.n == other.n
                and self.m == other.m
                and np.array_equal(self.centers, other.centers)
                and np.array_equal(self.widths, other.widths)
            )
        )

    def __repr__(self):
        return "Grid(n=%d, m=%d, domain=(%g, %g), radius=%g)" % (
            self.n,
            self.m,
            self.domain.a,
            self.domain.b,
            self.domain.exterior_radius,
        )


def build_grid(domain, n, m):
    """Build the uniform cell grid for ``domain`` with n interior and m
    exterior cells per side."""
    return Grid(domain, n, m)


class GridFunction:
    """Cellwise-constant function on a Grid that vanishes on the collar:
    ``values`` holds the ``grid.n`` interior cell values."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.array(values, dtype=float)
        if values.shape != (grid.n,):
            raise GridMismatch(
                "expected %d interior values, got shape %r" % (grid.n, values.shape)
            )
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.n))

    def scaled(self, c):
        return GridFunction(self.grid, c * self.values)

    def __repr__(self):
        return "GridFunction(n=%d, linf=%g)" % (
            self.grid.n,
            float(np.max(np.abs(self.values))),
        )


def _check_same_grid(u, v):
    if not u.grid.compatible_with(v.grid):
        raise GridMismatch("grid functions live on different grids")


def integrate(u):
    """Midpoint quadrature of u over the interval."""
    return float(np.dot(u.values, u.grid.interior_widths))


def inner_product(u, v):
    """L^2 inner product over the interval, midpoint quadrature."""
    _check_same_grid(u, v)
    return float(np.dot(u.values * v.values, u.grid.interior_widths))


def l2_norm(u):
    """L^2 norm over the interval; satisfies l2_norm(u)**2 == inner_product(u, u)."""
    return float(np.sqrt(inner_product(u, u)))

