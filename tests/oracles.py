"""Independent brute-force reference implementations for the pair sums.

Plain triple loops straight from the formulas, deliberately sharing no code
with the vectorized package paths; used to pin the pair-table reductions.
The root-find's shifted power sum is here too, in its plain form.
"""

import math

import numpy as np


def cells(grid):
    """(centers, widths, interior flags) of every cell of the truncated
    region (a - R, b + R), left to right: m collar cells of width R/m, the
    n interior cells of width (b - a)/n, m collar cells; laid out here from
    the cell edges, not by the package's formulas."""
    a, b, radius = grid.domain.a, grid.domain.b, grid.domain.exterior_radius
    n, m = grid.n, grid.m
    edges = np.concatenate([
        np.linspace(a - radius, a, m + 1),
        np.linspace(a, b, n + 1)[1:],
        np.linspace(b, b + radius, m + 1)[1:],
    ])
    inside = np.zeros(n + 2 * m, dtype=bool)
    inside[m : m + n] = True
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges), inside


def zero_extended(grid, values):
    """All cell values of the grid function with interior values
    ``values``: the oracles below index every cell, and the collar holds 0."""
    inside = cells(grid)[2]
    out = np.zeros(inside.size)
    out[inside] = values
    return out


def pair_allowed(inside, i, j):
    return i != j and bool(inside[i] or inside[j])


def brute_sp_modular(grid, field, values):
    """sum over allowed ordered pairs of |u_i-u_j|^p_ij d^-(N+s p_ij) w_i w_j."""
    x, w, inside = cells(grid)
    N, s = field.spatial_dim, field.s
    total = 0.0
    for i in range(x.size):
        for j in range(x.size):
            if not pair_allowed(inside, i, j):
                continue
            d = abs(x[i] - x[j])
            p = float(field.p(x[i], x[j]))
            total += abs(values[i] - values[j]) ** p * d ** -(N + s * p) * w[i] * w[j]
    return total


def brute_i1(grid, field, values):
    x, w, inside = cells(grid)
    N, s = field.spatial_dim, field.s
    total = 0.0
    for i in range(x.size):
        for j in range(x.size):
            if not pair_allowed(inside, i, j):
                continue
            d = abs(x[i] - x[j])
            p = float(field.p(x[i], x[j]))
            total += (
                abs(values[i] - values[j]) ** p / p * d ** -(N + s * p) * w[i] * w[j]
            )
    return total


def brute_apply(grid, field, values):
    """(Lu)_i = 2 sum_j |u_i-u_j|^(p-2)(u_i-u_j) d^-(N+s p) w_j, interior i."""
    x, w, inside = cells(grid)
    N, s = field.spatial_dim, field.s
    out = np.zeros(grid.n)
    for k, i in enumerate(np.flatnonzero(inside)):
        acc = 0.0
        for j in range(x.size):
            if not pair_allowed(inside, i, j):
                continue
            d = abs(x[i] - x[j])
            p = float(field.p(x[i], x[j]))
            du = values[i] - values[j]
            acc += abs(du) ** (p - 2.0) * du * d ** -(N + s * p) * w[j]
        out[k] = 2.0 * acc
    return out


def brute_weak(grid, field, uvals, vvals):
    x, w, inside = cells(grid)
    N, s = field.spatial_dim, field.s
    total = 0.0
    for i in range(x.size):
        for j in range(x.size):
            if not pair_allowed(inside, i, j):
                continue
            d = abs(x[i] - x[j])
            p = float(field.p(x[i], x[j]))
            du = uvals[i] - uvals[j]
            dv = vvals[i] - vvals[j]
            total += abs(du) ** (p - 2.0) * du * dv * d ** -(N + s * p) * w[i] * w[j]
    return total


def naive_log_power_sum(logc, e, t):
    """log(sum(exp(logc + e*t))) and the mean of e under those weights,
    written as the formula reads, one temporary per operation."""
    a = logc + e * t
    m = a.max()
    w = np.exp(a - m)
    s = w.sum()
    return m + math.log(s), float(np.dot(w, e)) / s


def unfolded_build(grid, field):
    """(P, row_w, pair_w) of the interior-row table, built the direct way:
    the whole unfolded n x n_total table first, then its collar columns
    grouped by bitwise-equal exponent column (groups of equal size
    together, in order of their first column) and each group summed into
    one column.  The reference for the package's blocked build, which
    must match it bitwise; to that end it takes the package's cell centers
    and widths, ``nonlocal_operator._cells``, instead of ``cells`` above."""
    from fracflow.nonlocal_operator import _cells

    n = grid.n
    x, w = _cells(grid)
    d = np.abs(x[:n, None] - x[None, :])
    np.fill_diagonal(d, 1.0)
    P = np.asarray(field.p(x[:n, None], x[None, :]), dtype=float)
    row_w = d ** -(field.spatial_dim + field.s * P)
    np.fill_diagonal(row_w, 0.0)
    row_w *= w
    groups = {}
    for j in range(n, x.size):
        groups.setdefault(P[:, j].tobytes(), []).append(j)
    by_size = {}
    for idx in groups.values():
        by_size.setdefault(len(idx), []).append(idx)
    blocks = [np.array(idx).T for idx in by_size.values()]
    P = np.concatenate([P[:, :n]] + [P[:, b[0]] for b in blocks], axis=1)
    row_w = np.concatenate([row_w[:, :n]] + [row_w[:, b].sum(axis=1) for b in blocks], axis=1)
    pair_w = row_w * w[:n, None]
    pair_w[:, n:] *= 2.0
    return P, row_w, pair_w


def pair_weights(ctx):
    """The ordered-pair weights k_ij w_i w_j of a context's table, doubled
    on exterior columns, formed from its row weights as ``unfolded_build``
    forms them; the context itself keeps no such table."""
    n = ctx.grid.n
    pair_w = ctx.row_w * ctx.grid.interior_widths[:, None]
    pair_w[:, n:] *= 2.0
    return pair_w
