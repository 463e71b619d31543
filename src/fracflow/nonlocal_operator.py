"""Discrete fractional p(x)-Laplacian on the cell grid.

The complement of the interval enters only here: the context truncates
it to the collar (a - R, a) and (b, b + R), R the domain's
``exterior_radius``, with m cells of width R/m per side.  Its n_total
cells are the grid's n cells, then the left and the right collar cells.

All nonlocal quantities reduce to sums over ordered cell pairs (i, j),
i != j, with pairs where both cells lie on the exterior collar excluded
(such pairs are outside the operator's support set).  Each unordered pair
is therefore counted twice, which realizes the factor 2 of the
principal-value definition without a separate constant.  Per pair the
exponent is p_ij = p(x_i, x_j) and the kernel weight k_ij = d_ij**-(N +
s*p_ij) at the distance d_ij of the cell centers.

Every allowed pair has at least one interior cell, and k and p are
symmetric, so the context stores only the interior-row table: one row per
interior cell, pairing it with the n interior columns and with exterior
columns.  An ordered-pair sum over all cells equals the sum over this
table with exterior columns weighted 2, since the pair (i, j) with j in
the collar stands in for (j, i) as well; the diagonal carries weight 0.
Exterior columns hold the value 0, since grid functions vanish on the
collar, and sweeps take the n interior values.  A row's term against
exterior column j is therefore f(u_i, p_ij) times its weight, so collar
cells whose exponent columns P[:, j] are equal fold into one column
holding their summed weights.  The interior columns come first,
then one column per group: one for constant p (shape (n, n + 1)), one per
mirror pair for a p even in y on a symmetric collar (shape (n, n + m)),
and every collar cell when no two columns are equal (shape (n, n_total)).
Construction takes a block of rows at a time, BLOCK_ENTRIES entries of
the unfolded n x n_total table, and writes each block's folded rows into
the kept arrays, so no n x n_total array is ever made.  A context keeps
four arrays of its table's size, three for constant p: the exponents P (a
float when constant), the row weights k_ij w_j and two work buffers.  The widest table a
context can keep, the unfolded one, holds n * n_total entries per array,
at most MAX_TABLE_ENTRIES; a larger grid is refused with
InvalidResolution before anything is allocated.

The operator value on a cell is the exact gradient, with respect to
interior cell values weighted by cell measures, of the discrete nonlocal
energy sum_(i,j) (1/p_ij) |u_i - u_j|^p_ij k_ij w_i w_j.  Diagonal pairs
drop out identically for cellwise-constant data, so no principal-value
cutoff parameter appears.
"""

import numpy as np

from .errors import ContextMismatch, GridMismatch, InvalidResolution
from .exponents import validate_assumptions
from .grid import GridFunction
from .modular import _Terms, exponent_values

__all__ = [
    "OperatorContext",
    "build_context",
    "apply_operator",
    "weak_form",
    "monotonicity_gap",
    "convexity_inequality_check",
    "MAX_TABLE_ENTRIES",
]

#: cap on the entries n * n_total of the widest table a context can keep:
#: the unfolded one, when no two collar exponent columns are equal.  A
#: context keeps at most four float arrays of its table's size, P, row_w
#: and two work buffers (32 bytes per entry)
MAX_TABLE_ENTRIES = 1 << 22

#: entries per row block of construction (of the unfolded table) and of
#: the power |du|^(p - 2) (of the kept one); a block holds as many rows as
#: fit, and at least two
BLOCK_ENTRIES = 1 << 13


def _check_table_size(grid):
    entries = grid.n * grid.n_total
    if entries > MAX_TABLE_ENTRIES:
        raise InvalidResolution(
            "pair table of %d x %d = %d entries exceeds the cap of %d"
            % (grid.n, grid.n_total, entries, MAX_TABLE_ENTRIES)
        )


def _cells(grid):
    """Centers and widths of the context's cells: the grid's, then the m
    collar cells on (a - R, a) and the m on (b, b + R), left to right."""
    a, b, radius = grid.domain.a, grid.domain.b, grid.domain.exterior_radius
    h = radius / grid.m
    offsets = (np.arange(grid.m) + 0.5) * h
    x = np.concatenate([grid.interior_centers, a - radius + offsets, b + offsets])
    w = np.concatenate([grid.interior_widths, np.full(2 * grid.m, h)])
    return x, w


def _row_blocks(n, width):
    """Slices of the n >= 2 rows, as many per block as fit in BLOCK_ENTRIES
    entries of the given width, and never one row alone: a sum over the
    columns of a one-row block runs pairwise, while a sum over several
    rows adds the columns one after another, as over the whole table."""
    step = max(2, BLOCK_ENTRIES // width)
    starts = list(range(0, n, step))
    if n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _exterior_groups(field, x, n):
    """Exterior column indices j >= n grouped by equal exponent column
    p(x_i, x_j) over the interior rows i, as one (k, groups) index array
    per group size k; groups keep the order of their first column.

    The exponents form a block of exterior columns at a time, interior
    rows first as in the table, and each column is keyed by its bytes.
    Adding 0.0 makes -0.0 and 0.0 one key, so exponents compare as floats."""
    groups = {}
    for cols in _row_blocks(x.size - n, n):
        P = np.asarray(field.p(x[:n, None], x[None, n:][:, cols]), dtype=float) + 0.0
        for j, col in enumerate(P.T, start=n + cols.start):
            groups.setdefault(col.tobytes(), []).append(j)
    by_size = {}
    for idx in groups.values():
        by_size.setdefault(len(idx), []).append(idx)
    return [np.array(idx).T for idx in by_size.values()]


def _fill_rows(P, row_w, field, x, w, rows, groups):
    """Write the interior rows ``rows`` of the folded tables P and row_w:
    their exponents p(x_i, x_j) and kernel weights d_ij ** -(N + s p_ij)
    w_j against all cells, 0 on the diagonal, with each group's exterior
    columns folded into one."""
    n = P.shape[0]
    diag = (np.arange(rows.stop - rows.start), np.arange(rows.start, rows.stop))
    d = x[rows, None] - x
    np.abs(d, out=d)
    d[diag] = 1.0
    p = np.asarray(field.p(x[rows, None], x[None, :]), dtype=float)
    expo = field.s * p
    expo += field.spatial_dim
    np.power(d, np.negative(expo, out=expo), out=d)
    d[diag] = 0.0
    d *= w
    P[rows, :n], row_w[rows, :n] = p[:, :n], d[:, :n]
    j = n
    for g in groups:
        cols = slice(j, j + g.shape[1])
        P[rows, cols] = p[:, g[0]]
        row_w[rows, cols] = d[:, g].sum(axis=1)
        j = cols.stop


class OperatorContext:
    """Grid + exponent field + the interior-row pair table over the cells
    that ``_cells`` lays out.

    ``P`` is the exponent table and ``q_interior`` the reaction exponent
    on the interior cells, each a float when constant; ``row_w`` is k_ij
    w_j, the row weight of ``apply``.  The ordered-pair weight k_ij w_i w_j,
    doubled on exterior columns, is not kept: a pair sum weighs row i by
    w_i and an exterior column by 2 inside its reduction.  Nor is P - 2:
    ``apply`` forms it a row block at a time.
    Columns are the n interior cells, at ``_cols``, then one exterior
    column of value 0 per group of collar cells with equal exponent
    columns, holding the group's summed weights and its shared exponent;
    groups of equal size sit together, in order of their first cell.
    Sweeps write into preallocated work buffers and return only reductions
    or fresh arrays, never a view of a buffer, except ``pair_coeffs`` for
    variable p: its root-find side reads the first buffer and writes the
    second, valid until the next sweep.
    """

    def __init__(self, grid, field, summary=None):
        _check_table_size(grid)
        self.grid = grid
        self.field = field
        self.summary = summary
        self.q_interior = exponent_values(field.q, grid.interior_centers)
        n = grid.n
        x, w = _cells(grid)
        groups = _exterior_groups(field, x, n)
        shape = (n, n + sum(g.shape[1] for g in groups))
        P, row_w = np.empty(shape), np.empty(shape)
        for rows in _row_blocks(n, x.size):
            _fill_rows(P, row_w, field, x, w, rows, groups)
        self.row_w = row_w
        self.P = float(P.flat[0]) if np.all(P == P.flat[0]) else P
        self._cols = slice(0, n)
        self._col_vals = np.zeros(shape[1])
        self._row_f = w[:n]
        self._col_f = np.ones(shape[1])
        self._col_f[n:] = 2.0
        if not isinstance(self.P, float):
            # row blocks of the power to P - 2, whose exponents form in _e
            self._blocks = _row_blocks(n, shape[1])
            self._e = np.empty(max(b.stop - b.start for b in self._blocks) * shape[1])
        self._a = np.empty(shape)
        self._b = np.empty(shape)

    def _diff(self, vals):
        """u_i - u_j for interior rows i against all columns j, in the first
        work buffer; exterior columns take the value 0."""
        cv = self._col_vals
        cv[self._cols] = vals
        return np.subtract(cv[self._cols, None], cv, out=self._a)

    def _abs_pow(self, vals):
        """|u_i - u_j|^p_ij in the first work buffer."""
        d = np.abs(self._diff(vals), out=self._a)
        return np.power(d, self.P, out=d)

    def _pow_p_minus_2(self, vals):
        """|du|^(p_ij - 2) in the second work buffer; du stays in the first.
        A variable exponent's P - 2 forms in ``_e`` a row block at a time."""
        a = np.abs(self._diff(vals), out=self._b)
        if isinstance(self.P, float):
            return np.power(a, self.P - 2.0, out=a)
        for rows in self._blocks:
            block = a[rows]
            e = self._e[:block.size].reshape(block.shape)
            np.power(block, np.subtract(self.P[rows], 2.0, out=e), out=block)
        return a

    def _pow_sign(self, vals):
        """|du|^(p_ij - 2) du in the second work buffer; du stays in the first."""
        return np.multiply(self._pow_p_minus_2(vals), self._a, out=self._b)

    def _pair_sum(self, t):
        """sum over ordered pairs of t_ij k_ij w_i w_j: the table t against
        row_w, with exterior columns weighted 2 and row i by w_i."""
        return float(np.dot(np.einsum("ij,ij,j->i", t, self.row_w, self._col_f), self._row_f))

    def _pair_weighted(self, t):
        """t_ij k_ij w_i w_j in place, doubled on exterior columns."""
        t *= self.row_w
        t *= self._row_f[:, None]
        t *= self._col_f
        return t

    # -- pair reductions ----------------------------------------------------

    def sp_modular(self, vals):
        """sum over pairs of |u_i - u_j|^p_ij k_ij w_i w_j."""
        return self.pair_stats(vals)[1]

    def i1(self, vals):
        """Nonlocal energy sum over pairs of (1/p_ij) |u_i - u_j|^p_ij k_ij w_i w_j."""
        return self.pair_stats(vals)[0]

    def pair_stats(self, vals):
        """(i1, sp_modular) in a single pass over the table: the modular
        from |du|^p against the weights, then the energy from |du|^p k w w
        over p, formed in place of |du|^p."""
        t = self._abs_pow(vals)
        sp = self._pair_sum(t)
        t /= self.P
        return self._pair_sum(t), sp

    def apply(self, vals):
        """Operator values on interior cells: 2 sum_j |du|^(p-2) du k_ij w_j;
        the |du|^(p-2) table stays in the second work buffer."""
        c = self._pow_p_minus_2(vals)
        return 2.0 * np.einsum("ij,ij->i", np.multiply(c, self._a, out=self._a), self.row_w)

    def linearize(self, vals):
        """(operator values, n x n Jacobian in the interior values) at
        ``vals``, both from one ``apply`` sweep: the Jacobian is formed from
        the |du|^(p-2) table that sweep leaves.

        Entry (i, k), k != i, is -2 (p_ik - 1) |du_ik|^(p_ik - 2) k_ik w_k;
        the diagonal entry is 2 sum_j (p_ij - 1) |du_ij|^(p_ij - 2) k_ij w_j
        over all columns j, so exterior columns fold into the diagonal.
        Finite since p >= 2.
        """
        values = self.apply(vals)
        c = np.multiply(self._b, self.row_w, out=self._b)
        # (p - 1) c as p c - c, without a table-sized temporary
        pc = np.multiply(c, self.P, out=self._a)
        pc -= c
        jac = -2.0 * pc[:, self._cols]
        # pc is 0 on the table diagonal (j = i), so the row sum runs over j != i
        np.fill_diagonal(jac, 2.0 * pc.sum(axis=1))
        return values, jac

    def weak(self, uvals, vvals):
        """Pair sum |du|^(p-2) du dv k_ij w_i w_j."""
        a = self._pow_sign(uvals)
        a *= self._diff(vvals)
        return self._pair_sum(a)

    def gap(self, uvals, vvals):
        """Pair sum (|du|^(p-2) du - |dv|^(p-2) dv)(du - dv) k w w.

        Each summand is a product of same-signed factors, so the reduction
        stays nonnegative up to roundoff.
        """
        av = self._pow_sign(vvals).copy()
        au = self._pow_sign(uvals)
        au -= av
        au *= self._diff(uvals - vvals)
        return self._pair_sum(au)

    def pair_coeffs(self, vals):
        """The pair side sum(c * lam**p) of a root-find along the ray of u,
        c = |du|^p k w w, as a ``_Terms``; the scaled modular of u/lam is
        its value at 1/lam.  Used by the seminorm and the ray scaling.

        For constant p it is one float term, the summed coefficient, and
        holds no array.  Otherwise the coefficient logs (-inf for a zero
        coefficient) stay in the first work buffer, the exponents are read
        from ``P`` and the power sums form in the second buffer, so the
        side is valid until the next sweep and no table-sized array is
        made.  ``vals`` are a grid function's values, finite, so no
        coefficient is nan.
        """
        t = self._abs_pow(vals)
        c = self._pair_sum(t) if isinstance(self.P, float) else self._pair_weighted(t)
        return _Terms.of(c, self.P, self._b)

    def sp_grad_interior(self, vals):
        """Measure-weighted gradient of sum |du|^p k w w on interior cells:
        2 sum_j p_ij |du|^(p-1) sgn(du) k_ij w_j."""
        a = self._pow_sign(vals)
        a *= self.P
        return 2.0 * np.einsum("ij,ij->i", a, self.row_w)

    def sp_dlambda(self, vals, lam):
        """d/d lam of sum |du/lam|^p k w w (negative for nonzero u)."""
        t = self._abs_pow(vals / lam)
        t *= self.P
        return -self._pair_sum(t) / lam

    def _check_function(self, u):
        if not u.grid.compatible_with(self.grid):
            raise ContextMismatch("grid function does not match the context grid")


def build_context(grid, field, sample_resolution=65):
    """The operator context, with the exponent field validated against the
    grid's truncated region; an unvalidated context, with no summary, is
    ``OperatorContext(grid, field)``."""
    summary = validate_assumptions(field, grid.domain, sample_resolution)
    return OperatorContext(grid, field, summary=summary)


def apply_operator(u, ctx):
    """Apply the nonlocal operator to a grid function: the operator values
    on the interior cells, as a grid function."""
    ctx._check_function(u)
    return GridFunction(ctx.grid, ctx.apply(u.values))


def weak_form(u, v, ctx):
    """Duality pairing of the operator at u against v."""
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
