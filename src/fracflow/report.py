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


def trajectory_to_csv(record, path):
    lines = [TRAJECTORY_HEADER]
    for s in record.samples:
        lines.append(
            ",".join(
                [
                    _fmt(s.t),
                    _fmt(s.dt),
                    _fmt(s.energy),
                    _fmt(s.nehari),
                    _fmt(s.phi),
                    _fmt(s.l2),
                    _fmt(s.lux_r),
                    _fmt(s.modular_sp),
                    _fmt(s.modular_q),
                    s.well_class,
                    _fmt(s.residual),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


AUDIT_HEADER = "t,dt,phi,phi_prime,identity_gap,bound_margin,ratio,tol"


def audit_to_csv(audit, path):
    lines = [AUDIT_HEADER]
    for r in audit.rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.t,
                    r.dt,
                    r.phi,
                    r.phi_prime,
                    r.identity_gap,
                    r.bound_margin,
                    r.ratio,
                    r.tol,
                )
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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

