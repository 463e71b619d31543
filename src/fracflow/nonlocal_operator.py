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
the kept arrays, so no n x n_total array is ever made.  Every sweep
takes the kept table a block of rows at a time, BLOCK_ENTRIES entries of
it, in work buffers of one block's size, and writes per-row results into
arrays of n entries.  A context keeps two arrays of its table's size, one
for constant p: the exponents P (a float when constant) and the row
weights k_ij w_j.  A variable-p root-find side from ``pair_coeffs`` owns
two more while it lives.  The widest table a context can keep, the
unfolded one, holds n * n_total entries per array, at most
MAX_TABLE_ENTRIES; a larger grid is refused with InvalidResolution before
anything is allocated.

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
#: context keeps at most two float arrays of its table's size, P and row_w
#: (16 bytes per entry), and a variable-p pair side holds two more while it
#: lives (16 bytes per entry)
MAX_TABLE_ENTRIES = 1 << 22

#: entries per row block of construction (of the unfolded table) and of
#: every sweep (of the kept one); a block holds as many rows as fit, and at
#: least two
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
    the sweeps form it a row block at a time.
    Columns are the n interior cells, at ``_cols``, then one exterior
    column of value 0 per group of collar cells with equal exponent
    columns, holding the group's summed weights and its shared exponent;
    groups of equal size sit together, in order of their first cell.
    Every sweep runs over the row blocks ``_blocks`` in work buffers of one
    block's size, writes per-row results into arrays of n entries and
    returns only reductions or fresh arrays, never a view of a buffer; a
    variable-p ``pair_coeffs`` side owns its arrays.
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
        # a sweep's row blocks and its work buffers, each one block in size;
        # a variable exponent's P - 2 forms in _e
        self._blocks = _row_blocks(n, shape[1])
        block = (max(b.stop - b.start for b in self._blocks), shape[1])
        self._a, self._b = np.empty(block), np.empty(block)
        if not isinstance(self.P, float):
            self._e = np.empty(block)

    def _p(self, rows):
        """The exponents of the rows ``rows``: P itself when constant."""
        return self.P if isinstance(self.P, float) else self.P[rows]

    def _diffs(self, vals, out=None):
        """Per row block: its rows and u_i - u_j for them against all columns
        j, in the first work buffer or in those rows of ``out``; exterior
        columns take the value 0."""
        cv = self._col_vals
        cv[self._cols] = vals
        for rows in self._blocks:
            d = self._a[:rows.stop - rows.start] if out is None else out[rows]
            yield rows, np.subtract(cv[rows, None], cv, out=d)

    def _abs_pows(self, vals, out=None):
        """Per row block: its rows and |u_i - u_j|^p_ij, where ``_diffs``
        puts u_i - u_j."""
        for rows, d in self._diffs(vals, out):
            yield rows, np.power(np.abs(d, out=d), self._p(rows), out=d)

    def _pow_p_minus_2s(self, vals):
        """Per row block: its rows, du in the first work buffer and
        |du|^(p_ij - 2) in the second.  A variable exponent's P - 2 forms
        in ``_e``."""
        for rows, d in self._diffs(vals):
            c = np.abs(d, out=self._b[:d.shape[0]])
            if isinstance(self.P, float):
                np.power(c, self.P - 2.0, out=c)
            else:
                np.power(c, np.subtract(self.P[rows], 2.0, out=self._e[:d.shape[0]]), out=c)
            yield rows, d, c

    def _row_sums(self, t, rows, out):
        """out[rows] = sum_j t_ij k_ij w_j, exterior columns weighted 2."""
        np.einsum("ij,ij,j->i", t, self.row_w[rows], self._col_f, out=out[rows])

    def _pair_sum(self, sums):
        """sum over ordered pairs of t_ij k_ij w_i w_j, from the per-row
        sums of ``_row_sums`` weighted w_i."""
        return float(np.dot(sums, self._row_f))

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
        sp, i1 = np.empty(self.grid.n), np.empty(self.grid.n)
        for rows, t in self._abs_pows(vals):
            self._row_sums(t, rows, sp)
            t /= self._p(rows)
            self._row_sums(t, rows, i1)
        return self._pair_sum(i1), self._pair_sum(sp)

    def apply(self, vals, jac=None):
        """Operator values on interior cells: 2 sum_j |du|^(p-2) du k_ij w_j.

        A ``jac``, a C-contiguous n x n output array, receives
        ``linearize``'s Jacobian rows from the same |du|^(p-2) blocks."""
        values = np.empty(self.grid.n)
        diag = None if jac is None else jac.reshape(-1)[::self.grid.n + 1]
        for rows, d, c in self._pow_p_minus_2s(vals):
            row_w = self.row_w[rows]
            np.einsum("ij,ij->i", np.multiply(c, d, out=d), row_w, out=values[rows])
            if jac is not None:
                c *= row_w
                # (p - 1) c as p c - c, in the block's first buffer
                pc = np.multiply(c, self._p(rows), out=d)
                pc -= c
                np.multiply(pc[:, self._cols], -2.0, out=jac[rows])
                # pc is 0 on the table diagonal (j = i), so the row sum runs over j != i
                np.multiply(pc.sum(axis=1), 2.0, out=diag[rows])
        values *= 2.0
        return values

    def linearize(self, vals):
        """(operator values, n x n Jacobian in the interior values) at
        ``vals``, both from one ``apply`` sweep, which forms the Jacobian's
        rows from each block's |du|^(p-2).

        Entry (i, k), k != i, is -2 (p_ik - 1) |du_ik|^(p_ik - 2) k_ik w_k;
        the diagonal entry is 2 sum_j (p_ij - 1) |du_ij|^(p_ij - 2) k_ij w_j
        over all columns j, so exterior columns fold into the diagonal.
        Finite since p >= 2.
        """
        jac = np.empty((self.grid.n, self.grid.n))
        return self.apply(vals, jac), jac

    def weak(self, uvals, vvals):
        """Pair sum |du|^(p-2) du dv k_ij w_i w_j, as <apply(u), v> under the
        cell measures: the pairs (i, j) and (j, i) turn v_i into v_i - v_j."""
        return float(np.dot(self.apply(uvals) * vvals, self._row_f))

    def gap(self, uvals, vvals):
        """Pair sum (|du|^(p-2) du - |dv|^(p-2) dv)(du - dv) k w w, as
        <apply(u) - apply(v), u - v> under the cell measures.

        Each pair's summand is a product of same-signed factors, so the gap
        is nonnegative up to the roundoff of apply(u) - apply(v).
        """
        d = uvals - vvals
        return float(np.dot((self.apply(uvals) - self.apply(vvals)) * d, self._row_f))

    def pair_coeffs(self, vals):
        """The pair side sum(c * lam**p) of a root-find along the ray of u,
        c = |du|^p k w w, as a ``_Terms``; the scaled modular of u/lam is
        its value at 1/lam.  Used by the seminorm and the ray scaling.

        For constant p it is one float term, the summed coefficient, and
        holds no array.  Otherwise c forms a row block at a time in a fresh
        table-sized array, which the side keeps as its coefficient logs
        beside a power-sum buffer of its own, so the side stays valid
        across later sweeps.  ``vals`` are a grid function's values,
        finite, so no coefficient is nan.
        """
        if isinstance(self.P, float):
            sums = np.empty(self.grid.n)
            for rows, t in self._abs_pows(vals):
                self._row_sums(t, rows, sums)
            return _Terms.of(self._pair_sum(sums), self.P)
        c = np.empty(self.row_w.shape)
        for rows, t in self._abs_pows(vals, c):
            t *= self.row_w[rows]
            t *= self._row_f[rows, None]
            t *= self._col_f
        return _Terms.of(c, self.P)

    def sp_grad_interior(self, vals):
        """Measure-weighted gradient of sum |du|^p k w w on interior cells:
        2 sum_j p_ij |du|^(p-1) sgn(du) k_ij w_j."""
        grad = np.empty(self.grid.n)
        for rows, d, c in self._pow_p_minus_2s(vals):
            a = np.multiply(c, d, out=c)
            a *= self._p(rows)
            np.einsum("ij,ij->i", a, self.row_w[rows], out=grad[rows])
        grad *= 2.0
        return grad

    def sp_dlambda(self, vals, lam):
        """d/d lam of sum |du/lam|^p k w w (negative for nonzero u)."""
        sums = np.empty(self.grid.n)
        for rows, t in self._abs_pows(vals / lam):
            t *= self._p(rows)
            self._row_sums(t, rows, sums)
        return -self._pair_sum(sums) / lam

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
