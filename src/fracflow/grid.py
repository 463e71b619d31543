"""1-D cell grids over a bounded interval.

The flow lives on W0, the functions that vanish outside the open interval
(a, b).  A grid is the uniform partition of (a, b) into n cells, and a
grid function holds its n cell values: it vanishes outside the interval by
definition, so every grid function is in W0.  The complement of the
interval enters only through the nonlocal operator, which truncates it to
a collar of m cells per side (``nonlocal_operator``); the grid carries the
counts m and n_total that size that collar.  A grid function's values are
finite and read-only: a NaN or an infinity is refused where it would enter,
so no norm, modular or energy downstream meets one.

Interval integrals (L^2 norms, inner products, modulars) use midpoint
quadrature over the cells.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidResolution, NonFinite

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
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
    """Uniform partition of (a, b) into n cells of width (b - a)/n, left
    to right, plus the count m of collar cells per side that the operator
    context lays out on the truncated exterior.

    Two grids are compatible when they share (domain, n, m).
    """

    def __init__(self, domain, n, m):
        if n < 4:
            raise InvalidResolution("need at least 4 interior cells, got %d" % n)
        if m < 1:
            raise InvalidResolution("need at least 1 exterior cell per side, got %d" % m)
        self.domain = domain
        self.n = int(n)
        self.m = int(m)
        h = (domain.b - domain.a) / n
        self.interior_centers = domain.a + (np.arange(n) + 0.5) * h
        self.interior_widths = np.full(n, h)

    @property
    def n_total(self):
        """Cell count of the operator's truncated region: n plus 2m."""
        return self.n + 2 * self.m

    def compatible_with(self, other):
        return self is other or (
            (self.domain, self.n, self.m) == (other.domain, other.n, other.m))

    def __repr__(self):
        return "Grid(n=%d, m=%d, domain=(%g, %g), radius=%g)" % (
            self.n,
            self.m,
            self.domain.a,
            self.domain.b,
            self.domain.exterior_radius,
        )


class GridFunction:
    """Cellwise-constant function on a Grid that vanishes outside (a, b):
    ``values`` holds the ``grid.n`` cell values, a read-only copy of the
    values given.  Raises NonFinite unless every value is finite."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.array(values, dtype=float)
        if values.shape != (grid.n,):
            raise GridMismatch(
                "expected %d interior values, got shape %r" % (grid.n, values.shape)
            )
        if not np.isfinite(values).all():
            raise NonFinite("grid function values must be finite")
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.n))

    def scaled(self, c):
        """c times u; a product that overflows is refused as NonFinite."""
        with np.errstate(over="ignore"):
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

