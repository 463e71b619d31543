"""CSV and text artifacts: grid functions, trajectory records, the blow-up
audit and the well geometry.

Grid-function CSV schema (one row per grid cell, left to right):
center, width, value.
Trajectory CSV schema (one row per sample, including t = 0):
t, dt, E, I, phi, l2, lux_r, modular_sp, modular_q, well_class, residual.
Every table goes through ``_write_table``, which writes floats with
shortest round-trip repr, so identical runs produce byte-identical files.
"""

import os

import numpy as np

from .errors import GridMismatch
from .grid import GridFunction

__all__ = [
    "TRAJECTORY_HEADER",
    "save_csv",
    "load_csv",
    "trajectory_to_csv",
    "audit_to_csv",
    "geometry_report",
]

TRAJECTORY_HEADER = "t,dt,E,I,phi,l2,lux_r,modular_sp,modular_q,well_class,residual"


def _fmt(v):
    return repr(float(v))


def _write_table(path, header, rows):
    """Write ``header`` and one comma-joined line per row; floats in rows
    are written with ``_fmt``, strings as they are."""
    lines = [header] + [
        ",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


CSV_HEADER = "center,width,value"


def save_csv(u, path):
    """Write one row per grid cell: center, width, value."""
    g = u.grid
    _write_table(path, CSV_HEADER, zip(g.interior_centers, g.interior_widths, u.values))


def load_csv(grid, path):
    """Read cell values written by save_csv back onto ``grid``.

    The file must hold one row per cell of ``grid``, with centers and
    widths that match the grid's to within 1e-12 (GridMismatch otherwise),
    and only finite numbers (ValueError otherwise).
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise GridMismatch("unrecognized grid-function CSV header in %s" % path)
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != grid.n:
        raise GridMismatch("file has %d cells, grid has %d" % (len(rows), grid.n))
    table = np.array(rows, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ValueError("non-finite number in %s" % path)
    centers, widths, values = table.T
    if np.max(np.abs(centers - grid.interior_centers)) > 1e-12 or np.max(
        np.abs(widths - grid.interior_widths)
    ) > 1e-12:
        raise GridMismatch("cell layout in %s does not match the grid" % path)
    return GridFunction(grid, values)


def trajectory_to_csv(record, path):
    _write_table(path, TRAJECTORY_HEADER, (
        (s.t, s.dt, s.energy, s.nehari, s.phi, s.l2, s.lux_r, s.modular_sp,
         s.modular_q, s.well_class, s.residual)
        for s in record.samples
    ))


AUDIT_HEADER = "t,dt,phi,phi_prime,identity_gap,bound_margin,ratio,tol"


def audit_to_csv(audit, path):
    _write_table(path, AUDIT_HEADER,
                 zip(*(getattr(audit, name) for name in AUDIT_HEADER.split(","))))


def geometry_report(geometry, lambda_hat, r_hat, lower_bound, out_dir):
    """Write the geometry summary text (embedding constant estimate, bound
    constant, depth and its lower bound) plus the minimizer as a cell CSV;
    returns the summary text."""
    os.makedirs(out_dir, exist_ok=True)
    minim_path = os.path.join(out_dir, "minimizer.csv")
    save_csv(geometry.minimizer, minim_path)
    text = "\n".join(
        [
            "embedding constant estimate  lambda_hat = %s" % _fmt(lambda_hat),
            "bound constant               R_hat      = %s" % _fmt(r_hat),
            "well depth estimate          depth_hat  = %s" % _fmt(geometry.depth_hat),
            "depth lower bound            (1/p+ - 1/q-) R_hat = %s" % _fmt(lower_bound),
            "minimizer file               %s" % minim_path,
        ]
    )
    with open(os.path.join(out_dir, "geometry_summary.txt"), "w") as fh:
        fh.write(text + "\n")
    return text

