"""Variable exponents p(x, y) and q(x) with admissibility validation.

The two-point exponent p drives the nonlocal kernel, the one-point
exponent q drives the reaction.  Admissibility of a pair (p, q, s):

  (a1)  2 <= p- <= p(x, y) <= p+ < infinity on the truncated pair set,
  (a2)  p symmetric, p(x, y) = p(y, x),
  (a3)  p+ < q- <= q(x) <= q+ < p*_s(x)/2 + 1 pointwise on the interval,
  (a4)  s * p+ < N,

where p*_s(x) = N pbar(x) / (N - s pbar(x)) with pbar(x) = p(x, x) is the
critical exponent of the fractional Sobolev embedding.  Extrema are taken
over the truncated computational region (the interval padded by the collar),
since extrema over an unbounded set are not computable and the discrete
operator's support is exactly the truncated region.

Fields are supplied as closed-form vectorized callables, optionally with
declared analytic bounds; validation cross-checks declared bounds against
dense sampling so a too-optimistic declaration cannot silently shrink the
extrema.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import AssumptionViolated, DegenerateDenominator

__all__ = [
    "ExponentField",
    "ExponentSummary",
    "validate_assumptions",
    "critical_exponent",
    "make_exponent_field",
    "one_point_exponent",
]


@dataclass
class ExponentField:
    """Closed-form exponent maps plus the fractional order.

    ``p(x, y)`` and ``q(x)`` must accept numpy arrays and broadcast, and
    p must be exactly symmetric.  ``p_bounds`` / ``q_bounds`` are optional
    declared (min, max) pairs over the truncated region.  The spatial
    dimension N is 1, fixed by the interval grid.
    """

    spatial_dim: ClassVar[int] = 1
    p: callable
    q: callable
    s: float
    p_bounds: tuple = None
    q_bounds: tuple = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError("fractional order s must lie in (0, 1), got %r" % self.s)

    def pbar(self, x):
        """Diagonal exponent p(x, x)."""
        x = np.asarray(x, dtype=float)
        return np.asarray(self.p(x, x), dtype=float)


@dataclass
class ExponentSummary:
    """Validated extrema of an exponent field over the truncated region."""

    p_minus: float
    p_plus: float
    q_minus: float
    q_plus: float
    min_critical_bound: float  # pointwise min of p*_s(x)/2 + 1 over the interval

    def __post_init__(self):
        assert self.p_minus <= self.p_plus and self.q_minus <= self.q_plus


def critical_exponent(field, x):
    """Critical embedding exponent p*_s(x) = N pbar(x) / (N - s pbar(x)):
    a float for a scalar x, an array for an array x.  Raises
    DegenerateDenominator if the denominator is <= 0 at any x."""
    N = field.spatial_dim
    pbar = field.pbar(x)
    denom = N - field.s * pbar
    if np.any(denom <= 0.0):
        k = int(np.argmin(denom))
        raise DegenerateDenominator(
            "N - s*pbar(x) = %g <= 0 at x=%r" % (denom.flat[k], float(np.ravel(x)[k]))
        )
    crit = N * pbar / denom
    return float(crit) if crit.ndim == 0 else crit


def _pair_samples(domain, resolution):
    """Sample points for the truncated pair set: both axes over the padded
    interval, keeping only pairs with at least one coordinate inside the
    closed interval (pairs with both points exterior do not belong)."""
    lo = domain.a - domain.exterior_radius
    hi = domain.b + domain.exterior_radius
    xs = np.linspace(lo, hi, resolution)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    in_omega = (xs >= domain.a) & (xs <= domain.b)
    keep = in_omega[:, None] | in_omega[None, :]
    return X[keep], Y[keep]


def _check_declared(kind, declared, sampled_min, sampled_max, witness):
    lo, hi = declared
    tol = 1e-12 * (1.0 + abs(lo) + abs(hi))
    if sampled_min < lo - tol or sampled_max > hi + tol:
        raise ValueError(
            "declared %s bounds (%g, %g) do not contain sampled extrema (%g, %g) "
            "near %r; declared bounds must never underestimate"
            % (kind, lo, hi, sampled_min, sampled_max, witness)
        )
    return float(lo), float(hi)


def _check_resolution(sample_resolution):
    """Raise ValueError unless validation samples at least 2 points per axis."""
    if sample_resolution < 2:
        raise ValueError("sample_resolution must be at least 2, got %r" % sample_resolution)


def validate_assumptions(field, domain, sample_resolution=65):
    """Check (a1)-(a4) by dense sampling over the truncated region.

    Returns the validated extrema; raises AssumptionViolated naming the
    first failing assumption together with a witnessing sample point.
    """
    _check_resolution(sample_resolution)
    N = field.spatial_dim

    X, Y = _pair_samples(domain, sample_resolution)
    P = np.asarray(field.p(X, Y), dtype=float)

    # (a2) symmetry, checked before extrema so asymmetric fields fail loudly
    Pt = np.asarray(field.p(Y, X), dtype=float)
    gap = np.abs(P - Pt)
    if np.max(gap) > 0.0:
        k = int(np.argmax(gap))
        raise AssumptionViolated(
            "a2",
            "p is not symmetric: p(x,y)=%g vs p(y,x)=%g" % (P[k], Pt[k]),
            witness=(float(X[k]), float(Y[k])),
        )

    if not np.all(np.isfinite(P)):
        k = int(np.argmin(np.isfinite(P)))
        raise AssumptionViolated(
            "a1", "p is not finite", witness=(float(X[k]), float(Y[k]))
        )
    kmin, kmax = int(np.argmin(P)), int(np.argmax(P))
    p_minus, p_plus = float(P[kmin]), float(P[kmax])
    if field.p_bounds is not None:
        p_minus, p_plus = _check_declared(
            "p", field.p_bounds, p_minus, p_plus, (float(X[kmax]), float(Y[kmax]))
        )
    if p_minus < 2.0:
        raise AssumptionViolated(
            "a1",
            "p must be >= 2 everywhere; min sampled p = %g" % p_minus,
            witness=(float(X[kmin]), float(Y[kmin])),
        )

    # (a4) before (a3): it guarantees the critical exponent is defined
    if field.s * p_plus >= N:
        raise AssumptionViolated(
            "a4",
            "s*p+ = %g must be < N = %d" % (field.s * p_plus, N),
            witness=(float(X[kmax]), float(Y[kmax])),
        )

    xs = np.linspace(domain.a, domain.b, sample_resolution)
    Q = np.asarray(field.q(xs), dtype=float)
    jmin, jmax = int(np.argmin(Q)), int(np.argmax(Q))
    q_minus, q_plus = float(Q[jmin]), float(Q[jmax])
    if field.q_bounds is not None:
        q_minus, q_plus = _check_declared(
            "q", field.q_bounds, q_minus, q_plus, float(xs[jmax])
        )

    # denominators positive by (a4)
    bound = critical_exponent(field, xs) / 2.0 + 1.0
    jb = int(np.argmin(bound))
    min_bound = float(bound[jb])

    if not q_minus > p_plus:
        raise AssumptionViolated(
            "a3",
            "need p+ < q-; got p+ = %g, q- = %g" % (p_plus, q_minus),
            witness=float(xs[jmin]),
        )
    if not q_plus < min_bound:
        raise AssumptionViolated(
            "a3",
            "need q+ < p*_s(x)/2 + 1 pointwise; got q+ = %g, min bound = %g"
            % (q_plus, min_bound),
            witness=float(xs[jb]),
        )

    return ExponentSummary(
        p_minus=p_minus,
        p_plus=p_plus,
        q_minus=q_minus,
        q_plus=q_plus,
        min_critical_bound=min_bound,
    )


# --- built-in fields -------------------------------------------------------


def _sq_range(lo, hi):
    """Range of x^2 over [lo, hi]."""
    top = max(lo * lo, hi * hi)
    bot = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi)
    return bot, top


def _affine_radial_bounds(a_coef, b_coef, domain):
    """Extrema of a + b*(x^2+y^2)/2 over the truncated pair set (one leg
    constrained to the closed interval, the other to the padded interval)."""
    nsq_o, msq_o = _sq_range(domain.a, domain.b)
    nsq_f, msq_f = _sq_range(
        domain.a - domain.exterior_radius, domain.b + domain.exterior_radius
    )
    cands = [
        a_coef + b_coef * (u + v) / 2.0
        for u in (nsq_o, msq_o)
        for v in (nsq_f, msq_f)
    ]
    return min(cands), max(cands)


def _bump_bounds(a_coef, b_coef, domain):
    nsq, msq = _sq_range(domain.a, domain.b)
    vals = (a_coef + b_coef * nsq, a_coef + b_coef * msq)
    return min(vals), max(vals)


def _declared_bounds(a_coef, b_coef, domain, bounds):
    """(a, a) when b = 0, else ``bounds`` over the region of ``domain``;
    None when b != 0 and no domain is given."""
    if b_coef == 0.0:
        return a_coef, a_coef
    return bounds(a_coef, b_coef, domain) if domain else None


def one_point_exponent(a, b=0.0):
    """The one-point exponent h(x) = a + b*x^2; b = 0 is the constant a.

    It serves both q and the probe exponent r of the Luxemburg norm
    reported along a run.
    """
    a_coef, b_coef = float(a), float(b)

    def h(x):
        x = np.asarray(x, dtype=float)
        return a_coef + b_coef * x**2

    return h


def make_exponent_field(s, p=(2.0, 0.0), q=(3.0, 0.0), domain=None):
    """Assemble an ExponentField from coefficient pairs (a, b).

    p(x, y) = a + b*(x^2 + y^2)/2 and q(x) = a + b*x^2; b = 0 is the
    constant exponent a.  Declared analytic bounds are attached whenever
    the truncated region is known (``domain`` given) or b = 0.
    """
    a_p, b_p = map(float, p)
    a_q, b_q = map(float, q)

    def p_fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return a_p + b_p * (x**2 + y**2) / 2.0

    return ExponentField(
        p=p_fn,
        q=one_point_exponent(a_q, b_q),
        s=float(s),
        p_bounds=_declared_bounds(a_p, b_p, domain, _affine_radial_bounds),
        q_bounds=_declared_bounds(a_q, b_q, domain, _bump_bounds),
    )
