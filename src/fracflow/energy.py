"""Energy landscape of the flow: functional, gradient, constrained geometry.

The energy of an admissible state splits into the nonlocal part (pair sum
weighted by 1/p_ij) minus the reaction potential (interval integral of
|u|^q(x)/q(x)).  Its derivative along the state, I(u) = rho_sp(u) - rho_q(u),
vanishes on the scaling manifold that separates the potential well from its
exterior; the well depth is the least energy on that manifold.

Every ray t -> t*u with u != 0 crosses the manifold exactly once, which
makes the crossing a cheap 1-D root-find and turns depth estimation into
projected gradient descent from the bump: step along -grad E, re-project
to the manifold, keep each step that lowers the energy.  The embedding
constant (least seminorm over Luxemburg norm) is estimated by the same
descent routine with a unit-length projection, from several starts;
``depth_lower_bound`` turns it into a lower bound for the depth, a
separate call from ``well_depth``.
"""

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoDescentProgress, ProjectionFailed, ZeroFunction
from .grid import GridFunction, l2_norm
from .modular import (EPS, _in_range, _lebesgue_side, _log_root, _or_inf, gagliardo_seminorm,
                      luxemburg_norm)

__all__ = [
    "EnergyReport",
    "WellGeometry",
    "energy",
    "energy_gradient",
    "nehari_lambda",
    "estimate_embedding_constant",
    "depth_lower_bound",
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
    """Estimated well depth and the manifold state that attains it."""

    depth_hat: float
    minimizer: GridFunction


def standard_bump(grid):
    """Centered parabolic bump, positive part of 1 - xi^2 in interval
    coordinates."""
    a, b = grid.domain.a, grid.domain.b
    xi = (2.0 * grid.interior_centers - (a + b)) / (b - a)
    return GridFunction(grid, np.maximum(1.0 - xi**2, 0.0))


def first_sine_mode(grid):
    """First sine mode over the interval."""
    a, b = grid.domain.a, grid.domain.b
    return GridFunction(grid, np.sin(np.pi * (grid.interior_centers - a) / (b - a)))


def energy(u, ctx, op_vals=None):
    """Full energy report for a state, all parts from one quadrature; A(u)
    in ``op_vals``, if at hand, gives a constant p's pair parts without a
    sweep: rho_sp = <A(u), u> and I1 = rho_sp / p by Euler's identity."""
    ctx._check_function(u)
    g = ctx.grid
    if op_vals is not None and isinstance(ctx.P, float):
        rho_sp = float(np.dot(op_vals * u.values, g.interior_widths))
        e_nonlocal = rho_sp / ctx.P
    else:
        e_nonlocal, rho_sp = ctx.pair_stats(u.values)
    powq = np.abs(u.values) ** ctx.q_interior
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
    return np.abs(vals) ** (ctx.q_interior - 2.0) * vals


def energy_gradient(u, ctx):
    """Gradient of the energy under the cell-measure inner product:
    operator value minus reaction, on interior cells."""
    ctx._check_function(u)
    return GridFunction(ctx.grid, ctx.apply(u.values) - _reaction(ctx, u.values))


def nehari_lambda(u, ctx, tol=1e-9):
    """Scaling factor placing u on the manifold: the unique lam > 0 with
    I(lam*u) = 0, that is sum cp lam^ep = sum cq lam^eq for the pair side
    p and the reaction side q, unique because the p-exponents all lie below
    the q-exponents.  ``_log_root`` finds t = log(lam) to a relative
    residual of a few float eps, from the sides of ``_in_range``'s
    u * 2**-k, so no finite u overflows or underflows them; lam scales
    back by 2**-k, inf past the float range.  Raises ZeroFunction for u == 0, RootFindFailed when
    the root-find fails, and ProjectionFailed when the relative residual
    at t exceeds ``tol``; u is a grid function, finite, so no term is nan."""
    ctx._check_function(u)
    if not np.any(u.values != 0.0):
        raise ZeroFunction("the zero function admits no manifold scaling")
    v, k = _in_range(u, ctx.P, ctx.q_interior)
    p = ctx.pair_coeffs(v.values)
    q = _lebesgue_side(v, ctx.q_interior)
    t, _, _ = _log_root(p, q, 4.0 * EPS)
    # |rho_sp - rho_q| / (rho_sp + rho_q) from the logs of both parts
    resid = math.tanh(0.5 * abs(p.log_sum(t)[0] - q.log_sum(t)[0]))
    if resid > tol:
        raise ProjectionFailed(
            "manifold projection relative residual %g exceeds %g" % (resid, tol)
        )
    return _or_inf(math.ldexp, float(np.exp(t)), -k)


# --- norm gradients (Euler's identity on the unit-modular root) -----------


def _norm_grad(g, v, widths):
    """Measure-weighted gradient of a Luxemburg norm lam at u, given the
    gradient g of its modular at v = u/lam.  Each term of the modular is
    homogeneous in u, so implicit differentiation of rho(u/lam) = 1 and
    Euler's identity <g, v> = -lam d/dlam rho(u/lam) give g / <g, v>."""
    return g / float(np.dot(g * v, widths))


# --- descent ---------------------------------------------------------------


def _check_n_starts(n_starts):
    """Raise ValueError unless a descent has at least one start."""
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1, got %r" % n_starts)


def _check_iters(iters):
    """Raise ValueError unless a descent's iteration count is nonnegative."""
    if iters < 0:
        raise ValueError("iters must be nonnegative, got %r" % iters)


def _starts(grid, n_starts, seed):
    """The first ``n_starts`` of: the bump, the sine mode, then standard
    normal interior values drawn from ``random.Random(seed)``."""
    _check_n_starts(n_starts)
    rng = random.Random(seed)
    starts = [standard_bump(grid), first_sine_mode(grid)][:n_starts]
    while len(starts) < n_starts:
        starts.append(GridFunction(grid, np.array([rng.gauss(0.0, 1.0) for _ in range(grid.n)])))
    return starts


def _descend(x, value, grad, project, iters):
    """Backtracking descent from the state ``x``.

    ``value(x)`` returns (objective, aux) and ``grad(x, aux)`` the
    gradient, so each point is evaluated once.  The first step has length
    1 clipped to [2**-20, 2**20] max|x|: a unit step lies below the
    resolution of a large x, and halving does not bring it near a tiny
    one.  Every iteration steps along
    the normalized -gradient, halving the step (at most 40 times) until
    ``project`` of the nonzero trial values lowers the objective, then
    doubles it; a trial that projects onto the last one tried is not
    evaluated again.  The first iteration without such a trial ends the
    descent, and so does the first trial that projects back onto x
    bitwise: the step is then below the resolution of x.  Returns the last
    accepted state, its objective and the accepted count.
    """
    f, aux = value(x)
    scale = float(np.max(np.abs(x.values)))
    alpha = min(max(1.0, math.ldexp(scale, -20)), math.ldexp(scale, 20))
    accepted = 0
    for _ in range(iters):
        g = grad(x, aux)
        gnorm = np.linalg.norm(g)
        if gnorm == 0.0:
            break
        direction = g / gnorm
        a = alpha
        tried = None
        for _ in range(40):
            trial = x.values - a * direction
            # a zero trial has no projection
            if np.any(trial != 0.0):
                cand = project(trial)
                if np.array_equal(cand.values, x.values):
                    return x, f, accepted
                if not np.array_equal(cand.values, tried):
                    tried = cand.values
                    f_new, aux_new = value(cand)
                    if f_new < f:
                        break
            a *= 0.5
        else:
            break
        x, f, aux = cand, f_new, aux_new
        alpha = a * 2.0
        accepted += 1
    return x, f, accepted


def estimate_embedding_constant(ctx, n_starts, iters, rng):
    """Estimate the embedding constant: the least value of
    seminorm(u) / luxemburg_q_norm(u) over nonzero states.

    Minimized by normalized gradient descent on the quotient from the bump,
    the sine mode, and random starts drawn from ``rng``, a seed; the result
    is an infimum over a subset and therefore an overestimate of the
    discrete constant.  Both norm gradients come from ``_norm_grad``, one
    pair-table sweep for the seminorm's.
    """
    _check_iters(iters)
    g = ctx.grid
    q, w = ctx.q_interior, g.interior_widths

    def value(u):
        sn = gagliardo_seminorm(u, ctx).luxemburg_norm
        ln = luxemburg_norm(u, q).luxemburg_norm
        return sn / ln, (sn, ln)

    def grad(u, norms):
        sn, ln = norms
        vs, vq = u.values / sn, u.values / ln
        gs = _norm_grad(ctx.sp_grad_interior(vs), vs, w)
        gq = _norm_grad(q * _reaction(ctx, vq), vq, w)
        return gs / ln - sn * gq / ln**2

    def project(trial):
        return GridFunction(g, trial / np.linalg.norm(trial))

    best = np.inf
    for u0 in _starts(g, n_starts, rng):
        x = GridFunction(g, u0.values / l2_norm(u0))
        best = min(best, _descend(x, value, grad, project, iters)[1])
    return float(best)


def depth_lower_bound(lambda_hat, summary):
    """(R_hat, lower bound) for the well depth from an embedding constant
    estimate: R_hat is the largest of the four powers of ``lambda_hat``
    indexed by the exponent extrema, and the bound (1/p+ - 1/q-) * R_hat."""
    pm, pp = summary.p_minus, summary.p_plus
    qm, qp = summary.q_minus, summary.q_plus
    powers = [
        qp * (qp / pm - 1.0),
        qp * (qp / pp - 1.0),
        qm * (qm / pm - 1.0),
        qm * (qm / pp - 1.0),
    ]
    r_hat = float(max(lambda_hat**e for e in powers))
    return r_hat, float((1.0 / pp - 1.0 / qm) * r_hat)


def well_depth(ctx, iters, tol=1e-9):
    """Estimate the well depth by projected gradient descent from the bump.

    The bump is projected onto the manifold, then alternates descent steps
    along -grad E with re-projection; the last energy is the depth
    estimate and its state the minimizer.  A ground state may be taken
    nonnegative, since |u| lowers no part of E, and the bump starts in
    that cone.  The embedding constant and the depth lower bound are
    separate calls: ``estimate_embedding_constant`` and
    ``depth_lower_bound``.
    """
    _check_iters(iters)
    g = ctx.grid

    def value(w):
        return energy(w, ctx).energy, None

    def grad(w, _):
        return energy_gradient(w, ctx).values

    def project(trial):
        cand = GridFunction(g, trial)
        return cand.scaled(nehari_lambda(cand, ctx, tol=tol))

    w, e, accepted = _descend(project(standard_bump(g).values), value, grad, project, iters)
    if iters > 0 and not accepted:
        warnings.warn("descent made no progress from the bump", NoDescentProgress)
    return WellGeometry(depth_hat=float(e), minimizer=w)


def _well_class(rep, depth_hat, tol=1e-9):
    """Position of the state whose energy report is ``rep`` relative to the
    well.  The zero state belongs to the well by definition, and so does a
    state whose two modulars underflow: by (a3) q- > p+, so rho_q << rho_sp
    once either is that small."""
    scale = rep.gagliardo_modular + rep.q_modular
    if scale == 0.0:
        return IN_WELL
    if abs(rep.nehari) <= tol * scale:
        return ON_NEHARI
    if rep.energy >= depth_hat:
        return ABOVE_WELL
    return IN_WELL if rep.nehari > 0.0 else IN_EXTERIOR


def classify(u, geometry, ctx, tol=1e-9):
    """Place a state relative to the well: InWell, InExterior, OnNehari, or
    AboveWell.  The zero state, and a state whose modulars both underflow,
    belong to the well."""
    return _well_class(energy(u, ctx), geometry.depth_hat, tol)
