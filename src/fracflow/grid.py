"""1-D cell grids over a bounded interval with a truncated exterior collar.

The flow lives on W0, the functions that vanish outside the open interval
(a, b).  The grid carries exterior cells on a collar of finite width on
each side, so nonlocal pair sums can reach outside the interval; the
collar approximates the complement of the interval.  A grid function
stores only its n interior values: its collar value is zero by
definition, so every grid function is in W0 and sweeps take the n
interior values.  The collar appears in CSV files as rows of value 0.

Interval integrals (L^2 norms, inner products, modulars) use midpoint
quadrature over the interior cells.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidResolution, NotW0

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
    "build_grid",
    "l2_norm",
    "inner_product",
    "integrate",
    "save_csv",
    "load_csv",
]

#: collar width defaults to this multiple of the interval length
DEFAULT_RADIUS_FACTOR = 4.0


@dataclass(frozen=True)
class Domain:
    """Open interval (a, b) plus the width of the truncated exterior collar."""

    a: float
    b: float
    exterior_radius: float = None

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("domain requires b > a, got (%r, %r)" % (self.a, self.b))
        if self.exterior_radius is None:
            object.__setattr__(
                self, "exterior_radius", DEFAULT_RADIUS_FACTOR * (self.b - self.a)
            )
        if not self.exterior_radius > 0:
            raise ValueError("exterior_radius must be positive")

    @property
    def length(self):
        return self.b - self.a


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


CSV_HEADER = "center,width,value,region"


def save_csv(u, path):
    """Write one row per cell: center, width, value, interior/exterior flag;
    collar rows hold the value 0."""
    g = u.grid
    values = np.zeros(g.n_total)
    values[g.interior_slice] = u.values
    lines = [CSV_HEADER]
    for c, w, v, inside in zip(g.centers, g.widths, values, g.interior_mask):
        lines.append(
            "%s,%s,%s,%s"
            % (repr(float(c)), repr(float(w)), repr(float(v)),
               "interior" if inside else "exterior")
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(grid, path):
    """Read cell values written by save_csv back onto ``grid``.

    Cell centers and widths must match the grid to within 1e-12, and every
    collar value must be zero (NotW0 otherwise).
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise GridMismatch("unrecognized grid-function CSV header in %s" % path)
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != grid.n_total:
        raise GridMismatch(
            "file has %d cells, grid has %d" % (len(rows), grid.n_total)
        )
    centers = np.array([float(r[0]) for r in rows])
    widths = np.array([float(r[1]) for r in rows])
    values = np.array([float(r[2]) for r in rows])
    if np.max(np.abs(centers - grid.centers)) > 1e-12 or np.max(
        np.abs(widths - grid.widths)
    ) > 1e-12:
        raise GridMismatch("cell layout in %s does not match the grid" % path)
    if np.any(values[~grid.interior_mask] != 0.0):
        raise NotW0("%s holds a nonzero value on the exterior collar" % path)
    return GridFunction(grid, values[grid.interior_slice])
