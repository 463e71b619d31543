"""Variable-exponent modulars and Luxemburg-type norms.

A modular is a quantity of the form sum(c_a * lam**-e_a) evaluated at
lam = 1: for the Lebesgue case c_i = |u_i|^h(x_i) w_i over interior cells,
for the Gagliardo case c_ij = |u_i - u_j|^p_ij k_ij w_i w_j over the pair
table.  When the exponent is constant the terms are summed into one
coefficient.  The corresponding norm is the unique lam > 0 at which the scaled
modular equals 1 (zero for the zero function).

Norm and modular are linked by the standard envelope inequalities: with
e- and e+ the extreme exponents, norm <= 1 implies norm**e+ <= modular <=
norm**e-, and the reversed exponents hold for norm >= 1; equivalently
min(t**e-, t**e+) <= modular <= max(t**e-, t**e+) at t = norm.

In t = log(lam) those inequalities bound the slope of -log(modular(u/lam))
by e- and e+; ``_log_root`` uses the bounds to bracket safeguarded Newton
steps in t, for every norm of more than one term here and for the manifold
scaling in ``energy``.  A one-term norm is solved in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExponentOutOfRange, RootFindFailed

__all__ = [
    "ModularReport",
    "lebesgue_modular",
    "luxemburg_norm",
    "gagliardo_modular",
    "gagliardo_seminorm",
    "exponent_values",
    "conjugate_exponent_values",
]

DEFAULT_TOL = 1e-10
MAX_EVALS = 100
EPS = float(np.finfo(float).eps)


@dataclass
class ModularReport:
    """Modular of u itself plus the norm and its root-find diagnostics:
    ``bisection_iterations`` counts evaluations and ``bracket`` is the final
    (lo, hi) around the norm (field names kept for tracing tools)."""

    modular_value: float
    luxemburg_norm: float
    bisection_iterations: int
    bracket: tuple


def exponent_values(h, x):
    """Evaluate a pointwise exponent (callable, array, or scalar) at x."""
    if callable(h):
        vals = np.asarray(h(x), dtype=float)
        if vals.shape != np.shape(x):
            vals = np.broadcast_to(vals, np.shape(x)).astype(float)
        return vals
    vals = np.asarray(h, dtype=float)
    if vals.ndim == 0:
        return np.full(np.shape(x), float(vals))
    if vals.shape != np.shape(x):
        raise ValueError("exponent array shape %r does not match points" % (vals.shape,))
    return vals


def conjugate_exponent_values(h, x):
    """Pointwise conjugate exponent h' with 1/h + 1/h' = 1."""
    hv = exponent_values(h, x)
    return hv / (hv - 1.0)


def _lebesgue_coeffs(u, h):
    """(coeff, exponent) arrays with coeff = |u_i|^h_i w_i > 0, summed to
    one coefficient when h is constant."""
    g = u.grid
    hv = exponent_values(h, g.interior_centers)
    if np.min(hv) <= 1.0:
        raise ExponentOutOfRange(
            "pointwise exponent must exceed 1; min is %g" % float(np.min(hv))
        )
    c = np.abs(u.values) ** hv * g.interior_widths
    if np.all(hv == hv[0]):
        c, hv = np.array([c.sum()]), hv[:1]
    keep = c > 0.0
    return c[keep], hv[keep]


def lebesgue_modular(u, h):
    """Interval integral of |u(x)|^h(x), midpoint quadrature."""
    c, _ = _lebesgue_coeffs(u, h)
    return float(np.sum(c))


def _log_power_sum(logc, e, t):
    """log(sum(exp(logc + e*t))) and the mean of e under those weights,
    both from one shifted power array, so no finite t overflows.  The
    array is formed and shifted in one buffer of the size of ``e``: the
    same operations on the same operands as ``exp(logc + e*t - max)``,
    with no temporaries."""
    w = np.multiply(e, t)
    w += logc
    m = w.max()
    w -= m
    np.exp(w, out=w)
    s = w.sum()
    return m + math.log(s), float(np.dot(w, e)) / s


def _log_root(cp, ep, cq, eq, ftol, max_evals=MAX_EVALS):
    """Root t = log(lam) of sum(cq * lam**eq) = sum(cp * lam**ep), c > 0.

    phi(t) = log(sum cq lam^eq) - log(sum cp lam^ep) has slope in [a, b] =
    [min eq - max ep, max eq - min ep], so the root lies between t - phi/a
    and t - phi/b.  From t = 0, Newton steps; a bisection of that bracket
    when a step leaves it.  Stops at |phi| <= ftol or a step below the
    float resolution of t.  Returns (t, evaluations, bracket containing t);
    raises RootFindFailed for a <= 0, a non-finite bracket end, or no
    convergence within ``max_evals`` evaluations.
    """
    slope_lo = float(eq.min() - ep.max())
    slope_hi = float(eq.max() - ep.min())
    if not slope_lo > 0.0:
        raise RootFindFailed("slope lower bound %g is not positive" % slope_lo)
    logcp, logcq = np.log(cp), np.log(cq)
    lo, hi = -math.inf, math.inf
    t = 0.0
    for evals in range(1, max_evals + 1):
        fq, dq = _log_power_sum(logcq, eq, t)
        fp, dp = _log_power_sum(logcp, ep, t)
        f = fq - fp
        ends = (t - f / slope_lo, t - f / slope_hi)
        if not (math.isfinite(ends[0]) and math.isfinite(ends[1])):
            raise RootFindFailed("root bracket end is not finite at t = %g" % t)
        lo, hi = max(lo, min(ends)), min(hi, max(ends))
        if abs(f) <= ftol:
            return t, evals, (min(lo, t), max(hi, t))
        t_new = t - f / (dq - dp)
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 4.0 * EPS * max(1.0, abs(t)):
            return t_new, evals, (lo, hi)
        t = t_new
    raise RootFindFailed("no root within %d evaluations; bracket (%g, %g)"
                         % (max_evals, lo, hi))


def _norm(c, e, tol):
    """ModularReport for the lam with sum(c * lam**-e) = 1 * lam**0, to
    |modular - 1| <= tol; norm 0 when no coefficient is positive.

    One coefficient (a constant exponent) has the closed-form root
    t = log(c) / e, the value Newton's first step from t = 0 takes, so it
    is returned after that one evaluation; a non-finite root raises
    RootFindFailed, as the root-find does.  More coefficients go to
    ``_log_root``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if c.size == 0:
        return ModularReport(0.0, 0.0, 0, (0.0, 0.0))
    if c.size == 1:
        t = lo = hi = float(np.log(c)[0] / e[0])
        evals = 1
        if not math.isfinite(t):
            raise RootFindFailed("closed-form root is not finite: t = %g" % t)
    else:
        t, evals, (lo, hi) = _log_root(c, -e, np.ones(1), np.zeros(1), math.log1p(tol))
    return ModularReport(float(np.sum(c)), math.exp(t), evals, (math.exp(lo), math.exp(hi)))


def luxemburg_norm(u, h, tol=DEFAULT_TOL):
    """Luxemburg norm of u in the variable-exponent Lebesgue space for h.

    Returns the norm together with the plain modular of u and the root-find
    diagnostics; the zero function short-circuits to norm 0.
    """
    c, e = _lebesgue_coeffs(u, h)
    return _norm(c, e, tol)


def gagliardo_modular(u, ctx):
    """Two-point modular of the difference quotients against the singular
    kernel, summed over the pair table."""
    ctx._check_function(u)
    return ctx.sp_modular(u.values)


def gagliardo_seminorm(u, ctx, tol=DEFAULT_TOL):
    """Gagliardo-Slobodetskii seminorm: the unit-modular scaling of the
    two-point modular."""
    ctx._check_function(u)
    c, e = ctx.pair_coeffs(u.values)
    return _norm(c, e, tol)
