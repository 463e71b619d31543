"""Independent brute-force reference implementations for the pair sums.

Plain triple loops straight from the formulas, deliberately sharing no code
with the vectorized package paths; used to pin the pair-table reductions.
"""

import numpy as np


def zero_extended(grid, values):
    """All n_total cell values of the grid function with interior values
    ``values``: the oracles below index every cell, and the collar holds 0."""
    out = np.zeros(grid.n_total)
    out[grid.interior_slice] = values
    return out


def pair_allowed(grid, i, j):
    if i == j:
        return False
    return bool(grid.interior_mask[i] or grid.interior_mask[j])


def brute_sp_modular(grid, field, values):
    """sum over allowed ordered pairs of |u_i-u_j|^p_ij d^-(N+s p_ij) w_i w_j."""
    x, w = grid.centers, grid.widths
    N, s = field.spatial_dim, field.s
    total = 0.0
    for i in range(grid.n_total):
        for j in range(grid.n_total):
            if not pair_allowed(grid, i, j):
                continue
            d = abs(x[i] - x[j])
            p = float(field.p(x[i], x[j]))
            total += abs(values[i] - values[j]) ** p * d ** -(N + s * p) * w[i] * w[j]
    return total


def brute_i1(grid, field, values):
    x, w = grid.centers, grid.widths
    N, s = field.spatial_dim, field.s
    total = 0.0
    for i in range(grid.n_total):
        for j in range(grid.n_total):
            if not pair_allowed(grid, i, j):
                continue
            d = abs(x[i] - x[j])
            p = float(field.p(x[i], x[j]))
            total += (
                abs(values[i] - values[j]) ** p / p * d ** -(N + s * p) * w[i] * w[j]
            )
    return total


def brute_apply(grid, field, values):
    """(Lu)_i = 2 sum_j |u_i-u_j|^(p-2)(u_i-u_j) d^-(N+s p) w_j, interior i."""
    x, w = grid.centers, grid.widths
    N, s = field.spatial_dim, field.s
    out = np.zeros(grid.n)
    for k, i in enumerate(np.flatnonzero(grid.interior_mask)):
        acc = 0.0
        for j in range(grid.n_total):
            if not pair_allowed(grid, i, j):
                continue
            d = abs(x[i] - x[j])
            p = float(field.p(x[i], x[j]))
            du = values[i] - values[j]
            acc += abs(du) ** (p - 2.0) * du * d ** -(N + s * p) * w[j]
        out[k] = 2.0 * acc
    return out


def brute_weak(grid, field, uvals, vvals):
    x, w = grid.centers, grid.widths
    N, s = field.spatial_dim, field.s
    total = 0.0
    for i in range(grid.n_total):
        for j in range(grid.n_total):
            if not pair_allowed(grid, i, j):
                continue
            d = abs(x[i] - x[j])
            p = float(field.p(x[i], x[j]))
            du = uvals[i] - uvals[j]
            dv = vvals[i] - vvals[j]
            total += abs(du) ** (p - 2.0) * du * dv * d ** -(N + s * p) * w[i] * w[j]
    return total
