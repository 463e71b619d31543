"""CSV and text artifact emission for trajectory records and well geometry.

Trajectory CSV schema (one row per sample, including t = 0):
t, dt, E, I, phi, l2, lux_r, modular_sp, modular_q, well_class, residual.
Floats are written with shortest round-trip repr so identical runs produce
byte-identical files.
"""

import os

from .grid import save_csv

__all__ = [
    "TRAJECTORY_HEADER",
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


def trajectory_to_csv(record, path):
    _write_table(path, TRAJECTORY_HEADER, (
        (s.t, s.dt, s.energy, s.nehari, s.phi, s.l2, s.lux_r, s.modular_sp,
         s.modular_q, s.well_class, s.residual)
        for s in record.samples
    ))


AUDIT_HEADER = "t,dt,phi,phi_prime,identity_gap,bound_margin,ratio,tol"


def audit_to_csv(audit, path):
    _write_table(path, AUDIT_HEADER, (
        (r.t, r.dt, r.phi, r.phi_prime, r.identity_gap, r.bound_margin, r.ratio, r.tol)
        for r in audit.rows
    ))


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

