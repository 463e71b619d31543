"""Variable-exponent modulars and Luxemburg-type norms.

A modular is a quantity of the form sum(c_a * lam**-e_a) evaluated at
lam = 1: for the Lebesgue case c_i = |u_i|^h(x_i) w_i over interior cells,
for the Gagliardo case c_ij = |u_i - u_j|^p_ij k_ij w_i w_j over the pair
table.  When the exponent is constant the terms are summed into one
coefficient.  The corresponding norm is the unique lam > 0 at which the scaled
modular equals 1 (zero for the zero function).  Grid functions hold finite
values only, so every coefficient is a number; a zero one is dropped.

Norm and modular are linked by the standard envelope inequalities: with
e- and e+ the extreme exponents, norm <= 1 implies norm**e+ <= modular <=
norm**e-, and the reversed exponents hold for norm >= 1; equivalently
min(t**e-, t**e+) <= modular <= max(t**e-, t**e+) at t = norm.

In t = log(lam) those inequalities bound the slope of -log(modular(u/lam))
by e- and e+; ``_log_root`` uses the bounds to bracket safeguarded Newton
steps in t, for every norm here and for the manifold scaling in
``energy``.  A constant exponent's side is its one coefficient as a float
term, so its root-find takes two evaluations and no array operation;
arrays hold variable exponents only.
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


def _lebesgue_powers(u, h):
    """c_i = |u_i|^h_i w_i and h_i over the interior cells, for h > 1, and
    the sum of c."""
    hv = exponent_values(h, u.grid.interior_centers)
    if np.min(hv) <= 1.0:
        raise ExponentOutOfRange(
            "pointwise exponent must exceed 1; min is %g" % float(np.min(hv))
        )
    c = np.abs(u.values) ** hv * u.grid.interior_widths
    return c, hv, float(c.sum())


def lebesgue_modular(u, h):
    """Interval integral of |u(x)|^h(x), midpoint quadrature."""
    return _lebesgue_powers(u, h)[2]


def _log_power_sum(logc, e, t, out):
    """log(sum(exp(logc + e*t))) and the mean of e under those weights,
    both from one shifted power array, so no finite t overflows.  The
    array is formed and shifted in ``out``, a buffer of the shape of ``e``:
    the same operations on the same operands as ``exp(logc + e*t - max)``,
    with no temporaries.  A coefficient log of -inf is a term of weight 0."""
    w = np.multiply(e, t, out=out)
    w += logc
    m = w.max()
    w -= m
    np.exp(w, out=w)
    s = w.sum()
    return m + math.log(s), float(np.dot(w, e)) / s


class _Terms:
    """One side sum(c * lam**e) of a root-find, held as the coefficient
    logs ``logc`` (-inf for a zero one) and exponents ``e``, and the least
    and largest exponent of a nonzero coefficient, ``e_min`` and ``e_max``:
    two floats for one term, as of a constant exponent, else 1-D arrays of
    one shape with ``out``, a buffer of that shape for the power sums."""

    def __init__(self, logc, e, e_min, e_max, out=None):
        self.logc, self.e, self.out = logc, e, out
        self.e_min, self.e_max = float(e_min), float(e_max)

    @classmethod
    def one(cls, c, e):
        """The side c * lam**e of the floats c >= 0 and e; no term for c = 0."""
        if c > 0.0:
            return cls(float(np.log(c)), e, e, e)
        return cls(-math.inf, e, math.inf, -math.inf)

    def log_sum(self, t):
        """``_log_power_sum`` of the side at t = log(lam); one term is
        (e*t + logc, e), the bits it gives on a finite one-element array."""
        if self.out is None:
            return self.e * t + self.logc, self.e
        return _log_power_sum(self.logc, self.e, t, self.out)


def _lebesgue_side(u, h):
    """The side sum(c * lam**h), c_i = |u_i|^h_i w_i: for a constant h one
    term of the summed c, else the c > 0 and their exponents in new arrays."""
    c, hv, total = _lebesgue_powers(u, h)
    if np.all(hv == hv[0]):
        return _Terms.one(total, float(hv[0]))
    keep = c > 0.0
    c, hv = c[keep], hv[keep]
    bounds = hv.min(initial=np.inf), hv.max(initial=-np.inf)
    return _Terms(np.log(c), hv, *bounds, np.empty(hv.shape))


def _log_root(p, q, ftol, max_evals=MAX_EVALS):
    """Root t = log(lam) of sum(cq * lam**eq) = sum(cp * lam**ep), for the
    ``_Terms`` p and q.

    phi(t) = log(sum cq lam^eq) - log(sum cp lam^ep) has slope in [a, b] =
    [min eq - max ep, max eq - min ep], so the root lies between t - phi/a
    and t - phi/b.  From t = 0, Newton steps; a bisection of that bracket
    when a step leaves it.  Stops at |phi| <= ftol or a step below the
    float resolution of t.  Returns (t, evaluations, bracket containing t);
    raises RootFindFailed for a side with no positive term, a <= 0, a
    non-finite bracket end, or no convergence within ``max_evals``
    evaluations.
    """
    if p.e_min > p.e_max or q.e_min > q.e_max:
        raise RootFindFailed("a side has no positive term")
    slope_lo = q.e_min - p.e_max
    slope_hi = q.e_max - p.e_min
    if not slope_lo > 0.0:
        raise RootFindFailed("slope lower bound %g is not positive" % slope_lo)
    lo, hi = -math.inf, math.inf
    t = 0.0
    for evals in range(1, max_evals + 1):
        fq, dq = q.log_sum(t)
        fp, dp = p.log_sum(t)
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


#: the side 1 * lam**0 that a norm's modular is set equal to
_UNIT = _Terms.one(1.0, 0.0)


def _norm(side, tol):
    """ModularReport for the lam with sum(c * lam**-e) = 1 * lam**0, to
    |modular - 1| <= tol, for the ``_Terms`` side sum(c * lam**e); norm 0
    when no coefficient is positive.  The modular is the side's value at 1.

    The root is ``_log_root``'s in -t = log(1/lam), where the side is
    sum(c * lam**e) itself; negation is exact, so its iterates are those
    in t.  One coefficient (a constant exponent) takes two evaluations: the
    first Newton step from t = 0 lands on log(c) / e."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if side.e_min > side.e_max:
        return ModularReport(0.0, 0.0, 0, (0.0, 0.0))
    s, evals, (lo, hi) = _log_root(_UNIT, side, math.log1p(tol))
    modular = math.exp(side.log_sum(0.0)[0])
    return ModularReport(modular, math.exp(-s), evals, (math.exp(-hi), math.exp(-lo)))


def luxemburg_norm(u, h, tol=DEFAULT_TOL):
    """Luxemburg norm of u in the variable-exponent Lebesgue space for h.

    Returns the norm together with the plain modular of u and the root-find
    diagnostics; the zero function short-circuits to norm 0.
    """
    return _norm(_lebesgue_side(u, h), tol)


def gagliardo_modular(u, ctx):
    """Two-point modular of the difference quotients against the singular
    kernel, summed over the pair table."""
    ctx._check_function(u)
    return ctx.sp_modular(u.values)


def gagliardo_seminorm(u, ctx, tol=DEFAULT_TOL):
    """Gagliardo-Slobodetskii seminorm: the unit-modular scaling of the
    two-point modular."""
    ctx._check_function(u)
    return _norm(ctx.pair_coeffs(u.values), tol)
