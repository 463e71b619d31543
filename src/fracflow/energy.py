"""Energy landscape of the flow: functional, gradient, constrained geometry.

The energy of an admissible state splits into the nonlocal part (pair sum
weighted by 1/p_ij) minus the reaction potential (interval integral of
|u|^q(x)/q(x)).  Its derivative along the state, I(u) = rho_sp(u) - rho_q(u),
vanishes on the scaling manifold that separates the potential well from its
exterior; the well depth is the least energy on that manifold.

Every ray t -> t*u with u != 0 crosses the manifold exactly once, which
makes the crossing a cheap 1-D root-find and turns depth estimation into
multi-start projected gradient descent: step along -grad E, re-project to
the manifold, keep the best energy seen.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NoDescentProgress, ProjectionFailed, ZeroFunction
from .exponents import validate_assumptions
from .grid import GridFunction, l2_norm
from .modular import exponent_values, luxemburg_norm, gagliardo_seminorm

__all__ = [
    "EnergyReport",
    "WellGeometry",
    "energy",
    "energy_gradient",
    "nehari_lambda",
    "estimate_embedding_constant",
    "well_depth",
    "classify",
    "standard_bump",
    "first_sine_mode",
    "IN_WELL",
    "IN_EXTERIOR",
    "ON_NEHARI",
    "ABOVE_WELL",
]

IN_WELL = "InWell"
IN_EXTERIOR = "InExterior"
ON_NEHARI = "OnNehari"
ABOVE_WELL = "AboveWell"


@dataclass
class EnergyReport:
    """Energy, its derivative along the state, and the underlying modulars."""

    energy: float
    nehari: float
    gagliardo_modular: float
    q_modular: float
    l2: float


@dataclass
class WellGeometry:
    """Estimated embedding constant, derived bound constant, and well depth."""

    lambda_hat: float
    R_hat: float
    depth_hat: float
    minimizer: GridFunction
    lower_bound: float


def standard_bump(grid):
    """Centered parabolic bump, positive part of 1 - xi^2 in interval
    coordinates, zero-extended."""
    a, b = grid.domain.a, grid.domain.b
    xi = (2.0 * grid.interior_centers - (a + b)) / (b - a)
    return GridFunction.from_interior(grid, np.maximum(1.0 - xi**2, 0.0))


def first_sine_mode(grid):
    """First sine mode over the interval, zero-extended."""
    a, b = grid.domain.a, grid.domain.b
    return GridFunction.from_interior(
        grid, np.sin(np.pi * (grid.interior_centers - a) / (b - a))
    )


def _q_coeffs(ctx, vals):
    """(coeff, exponent) arrays of the reaction modular: |u_i|^q_i w_i."""
    g = ctx.grid
    ui = vals[g.interior_slice]
    c = np.abs(ui) ** ctx.q_interior * g.interior_widths
    keep = c > 0.0
    return c[keep], ctx.q_interior[keep]


def energy(u, ctx):
    """Full energy report for a W0 state, all parts from one quadrature."""
    ctx._check_function(u)
    g = ctx.grid
    e_nonlocal, rho_sp = ctx.pair_stats(u.values)
    ui = u.interior
    powq = np.abs(ui) ** ctx.q_interior
    rho_q = float(np.dot(powq, g.interior_widths))
    e_reaction = float(np.dot(powq / ctx.q_interior, g.interior_widths))
    return EnergyReport(
        energy=e_nonlocal - e_reaction,
        nehari=rho_sp - rho_q,
        gagliardo_modular=rho_sp,
        q_modular=rho_q,
        l2=l2_norm(u),
    )


def _reaction(ctx, vals):
    """|u|^(q(x)-2) u on interior cells."""
    ui = vals[ctx.grid.interior_slice]
    return np.abs(ui) ** (ctx.q_interior - 2.0) * ui


def energy_gradient(u, ctx):
    """Gradient of the energy under the cell-measure inner product:
    operator value minus reaction, on interior cells (W0 result)."""
    ctx._check_function(u)
    return GridFunction.from_interior(ctx.grid, ctx.apply(u.values) - _reaction(ctx, u.values))


def _ray_root(cp, ep, cq, eq):
    """Unique root of g(lam) = sum cp lam^ep - sum cq lam^eq on (0, inf).

    g > 0 for small lam (the p-exponents all lie below the q-exponents) and
    g -> -inf for large lam, so a geometric scan brackets the root.
    """

    def g(lam):
        return float(np.sum(cp * lam**ep) - np.sum(cq * lam**eq))

    lo = hi = 1.0
    while g(lo) <= 0.0:
        lo *= 0.5
        if lo < 1e-280:
            raise ZeroFunction("ray scaling root-find lost its lower bracket")
    while g(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e280:
            raise ZeroFunction("ray scaling root-find lost its upper bracket")
    return float(brentq(g, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps))


def nehari_lambda(u, ctx, tol=1e-9):
    """Scaling factor placing u on the manifold: the unique lam > 0 with
    I(lam*u) = 0.  Raises ZeroFunction for u == 0 and ProjectionFailed
    when the relative residual at the root exceeds ``tol``."""
    ctx._check_function(u)
    if not np.any(u.values != 0.0):
        raise ZeroFunction("the zero function admits no manifold scaling")
    cp, ep = ctx.pair_coeffs(u.values)
    cq, eq = _q_coeffs(ctx, u.values)
    lam = _ray_root(cp, ep, cq, eq)
    resid = abs(float(np.sum(cp * lam**ep) - np.sum(cq * lam**eq)))
    scale = float(np.sum(cp * lam**ep) + np.sum(cq * lam**eq))
    if resid > tol * scale:
        raise ProjectionFailed(
            "manifold projection residual %g exceeds %g" % (resid, tol * scale)
        )
    return lam


# --- norm gradients (implicit differentiation of the bisection target) -----


def _q_norm_and_grad(ctx, vals, q_exp, tol):
    """Luxemburg norm of the interior values for exponent q_exp, plus its
    measure-weighted gradient with respect to interior cell values."""
    g = ctx.grid
    u = GridFunction.from_interior(g, vals[g.interior_slice])
    rep = luxemburg_norm(u, q_exp, tol=tol)
    lam = rep.luxemburg_norm
    hv = exponent_values(q_exp, g.interior_centers)
    ui = vals[g.interior_slice]
    scaled = np.abs(ui) / lam
    denom = float(np.dot(hv * scaled**hv, g.interior_widths))
    grad = hv * scaled ** (hv - 1.0) * np.sign(ui) / denom
    return lam, grad


def _seminorm_and_grad(ctx, vals, tol):
    """Gagliardo seminorm plus its measure-weighted interior gradient."""
    g = ctx.grid
    u = GridFunction.from_interior(g, vals[g.interior_slice])
    rep = gagliardo_seminorm(u, ctx, tol=tol)
    lam = rep.luxemburg_norm
    dg = ctx.sp_grad_interior(vals, lam=lam)
    denom = -ctx.sp_dlambda(vals, lam)
    return lam, dg / denom


def estimate_embedding_constant(ctx, q=None, n_starts=8, iters=200, rng=None, tol=1e-10):
    """Estimate the embedding constant: the least value of
    seminorm(u) / luxemburg_q_norm(u) over nonzero W0 states.

    Minimized by normalized gradient descent on the quotient from the bump,
    the sine mode, and random starts; the result is an infimum over a subset
    and therefore an overestimate of the discrete constant.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    g = ctx.grid
    if q is None:
        q = ctx.q_interior
    rng = np.random.default_rng(rng)

    def quotient(vals):
        u = GridFunction.from_interior(g, vals[g.interior_slice])
        sn = gagliardo_seminorm(u, ctx, tol=tol).luxemburg_norm
        ln = luxemburg_norm(u, q, tol=tol).luxemburg_norm
        return sn / ln

    def quotient_and_grad(vals):
        sn, gsn = _seminorm_and_grad(ctx, vals, tol)
        ln, gln = _q_norm_and_grad(ctx, vals, q, tol)
        return sn / ln, gsn / ln - sn * gln / ln**2

    starts = [standard_bump(g), first_sine_mode(g)]
    while len(starts) < n_starts:
        starts.append(GridFunction.from_interior(g, rng.standard_normal(g.n)))
    best = np.inf
    for u0 in starts[:n_starts]:
        vals = u0.values / l2_norm(u0)
        q_cur, grad = quotient_and_grad(vals)
        alpha = 1.0
        for _ in range(iters):
            direction = grad / (np.linalg.norm(grad) + 1e-300)
            improved = False
            a = alpha
            for _ in range(40):
                trial = vals[ctx.grid.interior_slice] - a * direction
                if not np.any(trial != 0.0):
                    a *= 0.5
                    continue
                trial = trial / np.linalg.norm(trial)
                tfull = np.zeros(g.n_total)
                tfull[g.interior_slice] = trial
                q_new = quotient(tfull)
                if q_new < q_cur:
                    vals = tfull
                    q_cur = q_new
                    alpha = a * 2.0
                    improved = True
                    break
                a *= 0.5
            if not improved:
                break
            _, grad = quotient_and_grad(vals)
        best = min(best, q_cur)
    return float(best)


def _bound_constant(lambda_hat, summary):
    """Constant entering the depth lower bound, the largest of the four
    powers of the embedding constant indexed by the exponent extrema."""
    pm, pp = summary.p_minus, summary.p_plus
    qm, qp = summary.q_minus, summary.q_plus
    powers = [
        qp * (qp / pm - 1.0),
        qp * (qp / pp - 1.0),
        qm * (qm / pm - 1.0),
        qm * (qm / pp - 1.0),
    ]
    return float(max(lambda_hat**e for e in powers))


def _require_summary(ctx):
    if ctx.summary is None:
        ctx.summary = validate_assumptions(ctx.field, ctx.grid.domain)
    return ctx.summary


def well_depth(ctx, q=None, n_starts=8, iters=300, tol=1e-9, rng=None):
    """Estimate the well depth by multi-start projected gradient descent.

    Each start is projected onto the manifold, then alternates descent steps
    along -grad E with re-projection; the least energy over all runs is the
    depth estimate.  Also estimates the embedding constant and the derived
    lower bound (1/p+ - 1/q-) * R_hat, both conservative by construction.
    """
    summary = _require_summary(ctx)
    g = ctx.grid
    rng = np.random.default_rng(rng)
    lam_hat = estimate_embedding_constant(
        ctx, q=q, n_starts=n_starts, iters=iters, rng=rng
    )

    starts = [standard_bump(g), first_sine_mode(g)]
    while len(starts) < n_starts:
        starts.append(GridFunction.from_interior(g, rng.standard_normal(g.n)))

    best_e = np.inf
    best_w = None
    for u0 in starts[:n_starts]:
        try:
            lam = nehari_lambda(u0, ctx, tol=tol)
        except ZeroFunction:
            continue
        w = u0.scaled(lam)
        e_cur = energy(w, ctx).energy
        if e_cur < best_e:
            best_e, best_w = e_cur, w
        alpha = 1.0
        made_progress = False
        for _ in range(iters):
            grad = energy_gradient(w, ctx).interior
            gnorm = np.linalg.norm(grad)
            if gnorm == 0.0:
                break
            direction = grad / gnorm
            improved = False
            a = alpha
            for _ in range(40):
                trial = w.interior - a * direction
                if np.any(trial != 0.0):
                    cand = GridFunction.from_interior(g, trial)
                    try:
                        lam_t = nehari_lambda(cand, ctx, tol=tol)
                    except ZeroFunction:
                        a *= 0.5
                        continue
                    cand = cand.scaled(lam_t)
                    e_new = energy(cand, ctx).energy
                    if e_new < e_cur:
                        w, e_cur = cand, e_new
                        alpha = a * 2.0
                        improved = True
                        made_progress = True
                        break
                a *= 0.5
            if not improved:
                break
            if e_cur < best_e:
                best_e, best_w = e_cur, w
        if not made_progress:
            warnings.warn(
                "descent made no progress from one start; keeping best-so-far",
                NoDescentProgress,
            )

    r_hat = _bound_constant(lam_hat, summary)
    lower = (1.0 / summary.p_plus - 1.0 / summary.q_minus) * r_hat
    return WellGeometry(
        lambda_hat=lam_hat,
        R_hat=r_hat,
        depth_hat=float(best_e),
        minimizer=best_w,
        lower_bound=float(lower),
    )


def classify(u, geometry, ctx, tol=1e-9):
    """Place a state relative to the well: InWell, InExterior, OnNehari, or
    AboveWell.  The zero state belongs to the well by definition."""
    if not np.any(u.values != 0.0):
        return IN_WELL
    rep = energy(u, ctx)
    scale = rep.gagliardo_modular + rep.q_modular
    if abs(rep.nehari) <= tol * scale:
        return ON_NEHARI
    if rep.energy >= geometry.depth_hat:
        return ABOVE_WELL
    return IN_WELL if rep.nehari > 0.0 else IN_EXTERIOR
