"""Discrete fractional p(x)-Laplacian on the cell grid.

All nonlocal quantities reduce to sums over ordered cell pairs (i, j),
i != j, with pairs where both cells lie on the exterior collar excluded
(such pairs are outside the operator's support set).  Each unordered pair
is therefore counted twice, which realizes the factor 2 of the
principal-value definition without a separate constant.  Per pair the
exponent is p_ij = p(x_i, x_j) and the kernel weight k_ij = d_ij**-(N +
s*p_ij) at the distance d_ij of the cell centers.

Every allowed pair has at least one interior cell, and k and p are
symmetric, so the context stores only the interior-row table: arrays of
shape (n, n_total) pairing each interior cell with every cell.  An
ordered-pair sum over all cells equals the sum over this table with
collar columns weighted 2, since the pair (i, j) with j in the collar
stands in for (j, i) as well; the diagonal carries weight 0.  The table
holds n * n_total entries per array, at most MAX_TABLE_ENTRIES; a larger
grid is refused with InvalidResolution before anything is allocated.

The operator value on a cell is the exact gradient, with respect to
interior cell values weighted by cell measures, of the discrete nonlocal
energy sum_(i,j) (1/p_ij) |u_i - u_j|^p_ij k_ij w_i w_j.  Diagonal pairs
drop out identically for cellwise-constant data, so no principal-value
cutoff parameter appears.
"""

import numpy as np

from .errors import ContextMismatch, GridMismatch, InvalidResolution, NotW0
from .exponents import validate_assumptions
from .grid import GridFunction

__all__ = [
    "OperatorContext",
    "build_context",
    "apply_operator",
    "weak_form",
    "monotonicity_gap",
    "convexity_inequality_check",
    "MAX_TABLE_ENTRIES",
]

#: cap on the entries n * n_total of the interior-row table; the context
#: keeps at most six float arrays of that size (48 bytes per entry)
MAX_TABLE_ENTRIES = 1 << 22


def _check_table_size(grid):
    entries = grid.n * grid.n_total
    if entries > MAX_TABLE_ENTRIES:
        raise InvalidResolution(
            "pair table of %d x %d = %d entries exceeds the cap of %d"
            % (grid.n, grid.n_total, entries, MAX_TABLE_ENTRIES)
        )


class OperatorContext:
    """Grid + exponent field + the interior-row pair table.

    ``P`` is the exponent table, a float when p is constant; ``row_w`` is
    k_ij w_j, the row weight of ``apply``; ``pair_w`` the ordered-pair
    weight k_ij w_i w_j, doubled on collar columns; ``pair_w_by_p`` that
    weight over P.  Sweeps write into two preallocated work buffers and
    return only reductions or fresh arrays, never a view of a buffer.
    """

    def __init__(self, grid, field, summary=None):
        _check_table_size(grid)
        self.grid = grid
        self.field = field
        self.summary = summary
        self.q_interior = np.asarray(field.q(grid.interior_centers), dtype=float)
        rows = grid.interior_slice
        x, w = grid.centers, grid.widths
        diag = (np.arange(grid.n), np.arange(rows.start, rows.stop))
        d = np.abs(x[rows, None] - x[None, :])
        d[diag] = 1.0
        P = np.asarray(field.p(x[rows, None], x[None, :]), dtype=float)
        k = d ** -(field.spatial_dim + field.s * P)
        k[diag] = 0.0
        self.P = float(P.flat[0]) if np.all(P == P.flat[0]) else P
        self._p_minus_2 = self.P - 2.0
        self.row_w = k * w
        collar_weight = np.where(grid.interior_mask, 1.0, 2.0)
        self.pair_w = self.row_w * w[rows, None] * collar_weight
        self.pair_w_by_p = self.pair_w / self.P
        self._a = np.empty(k.shape)
        self._b = np.empty(k.shape)

    def _diff(self, vals):
        """u_i - u_j for interior rows i against all columns j, in the first
        work buffer."""
        return np.subtract(vals[self.grid.interior_slice, None], vals, out=self._a)

    def _abs_pow(self, vals):
        """|u_i - u_j|^p_ij in the first work buffer."""
        d = np.abs(self._diff(vals), out=self._a)
        return np.power(d, self.P, out=d)

    def _pow_sign(self, vals):
        """|du|^(p_ij - 2) du in the second work buffer; du stays in the first."""
        du = self._diff(vals)
        a = np.abs(du, out=self._b)
        np.power(a, self._p_minus_2, out=a)
        return np.multiply(a, du, out=a)

    # -- pair reductions ----------------------------------------------------

    def sp_modular(self, vals):
        """sum over pairs of |u_i - u_j|^p_ij k_ij w_i w_j."""
        return float(np.einsum("ij,ij->", self._abs_pow(vals), self.pair_w))

    def i1(self, vals):
        """Nonlocal energy sum over pairs of (1/p_ij) |u_i - u_j|^p_ij k_ij w_i w_j."""
        return float(np.einsum("ij,ij->", self._abs_pow(vals), self.pair_w_by_p))

    def pair_stats(self, vals):
        """(i1, sp_modular) in a single pass over the table."""
        t = self._abs_pow(vals)
        e = float(np.einsum("ij,ij->", t, self.pair_w_by_p))
        return e, float(np.einsum("ij,ij->", t, self.pair_w))

    def apply(self, vals):
        """Operator values on interior cells: 2 sum_j |du|^(p-2) du k_ij w_j."""
        return 2.0 * np.einsum("ij,ij->i", self._pow_sign(vals), self.row_w)

    def weak(self, uvals, vvals):
        """Pair sum |du|^(p-2) du dv k_ij w_i w_j."""
        a = self._pow_sign(uvals)
        dv = self._diff(vvals)
        return float(np.einsum("ij,ij,ij->", a, dv, self.pair_w))

    def gap(self, uvals, vvals):
        """Pair sum (|du|^(p-2) du - |dv|^(p-2) dv)(du - dv) k w w.

        Each summand is a product of same-signed factors, so the reduction
        stays nonnegative up to roundoff.
        """
        av = self._pow_sign(vvals).copy()
        au = self._pow_sign(uvals)
        au -= av
        ddiff = self._diff(uvals - vvals)
        return float(np.einsum("ij,ij,ij->", au, ddiff, self.pair_w))

    def pair_coeffs(self, vals):
        """Flattened (coeff, exponent) arrays with coeff = |du|^p k w w > 0.

        The scaled modular of u/lam is then sum(coeff * lam**-exponent);
        used by the seminorm bisection and the ray scaling root-find.
        """
        c = np.multiply(self._abs_pow(vals), self.pair_w, out=self._a)
        keep = c > 0.0
        return c[keep], np.broadcast_to(self.P, c.shape)[keep]

    def sp_grad_interior(self, vals, lam=1.0):
        """Measure-weighted gradient of sum |du/lam|^p k w w on interior cells:
        (2/lam) sum_j p_ij |du/lam|^(p-1) sgn(du) k_ij w_j."""
        a = self._pow_sign(vals / lam)
        a *= self.P
        return (2.0 / lam) * np.einsum("ij,ij->i", a, self.row_w)

    def sp_dlambda(self, vals, lam):
        """d/d lam of sum |du/lam|^p k w w (negative for nonzero u)."""
        t = self._abs_pow(vals / lam)
        t *= self.P
        return -float(np.einsum("ij,ij->", t, self.pair_w)) / lam

    def _check_function(self, u, require_w0=True):
        if not u.grid.compatible_with(self.grid):
            raise ContextMismatch("grid function does not match the context grid")
        if require_w0 and not u.w0:
            raise NotW0("operation requires exterior values pinned to zero")


def build_context(grid, field, validate=True, sample_resolution=65):
    """Assemble the operator context; validates the exponent field against
    the grid's truncated region unless told otherwise.  Raises
    InvalidResolution, before validating or allocating, when the grid's
    pair table would exceed MAX_TABLE_ENTRIES."""
    _check_table_size(grid)
    summary = (
        validate_assumptions(field, grid.domain, sample_resolution) if validate else None
    )
    return OperatorContext(grid, field, summary=summary)


def apply_operator(u, ctx):
    """Apply the nonlocal operator to a W0 grid function.

    Returns a W0 grid function holding the operator values on interior
    cells; the operator acts on interior unknowns only, so collar entries
    of the result are stored as zeros.
    """
    ctx._check_function(u)
    return GridFunction.from_interior(ctx.grid, ctx.apply(u.values))


def weak_form(u, v, ctx):
    """Duality pairing of the operator at u against v (both W0)."""
    if not u.grid.compatible_with(v.grid):
        raise GridMismatch("u and v live on different grids")
    ctx._check_function(u)
    ctx._check_function(v)
    return ctx.weak(u.values, v.values)


def monotonicity_gap(u, v, ctx):
    """Pairing of the operator difference against u - v; nonnegative, and
    strictly positive for u != v."""
    if not u.grid.compatible_with(v.grid):
        raise GridMismatch("u and v live on different grids")
    ctx._check_function(u)
    ctx._check_function(v)
    return ctx.gap(u.values, v.values)


def convexity_inequality_check(r, s_val, pbar, tol=1e-12):
    """Check pbar |r|^(pbar-2) r (s_val - r) <= |s_val|^pbar - |r|^pbar
    up to ``tol`` times a magnitude scale.  Broadcasts over array inputs."""
    r = np.asarray(r, dtype=float)
    s_val = np.asarray(s_val, dtype=float)
    pbar = np.asarray(pbar, dtype=float)
    if np.any(pbar < 2.0):
        raise ValueError("pbar must be >= 2")
    rp = np.abs(r) ** pbar
    sp = np.abs(s_val) ** pbar
    lhs = pbar * np.abs(r) ** (pbar - 2.0) * r * (s_val - r)
    rhs = sp - rp
    ok = lhs <= rhs + tol * (1.0 + sp + rp)
    return bool(ok) if ok.ndim == 0 else ok
