"""Time integration of the nonlocal reaction-diffusion flow.

The flow u_t = -(operator value) + |u|^(q-2) u dissipates the energy, so an
attempted step is accepted only if the energy does not increase beyond a
small tolerance; otherwise the step size is halved.  Two steppers are
available: forward Euler, and an implicit-explicit proximal step that is
implicit in the monotone nonlocal part and explicit in the reaction.  The
proximal step is a strictly convex minimization, solved by Newton iteration
on its optimality residual with the operator's Jacobian from the pair
table; each Newton step is halved until the residual strictly decreases,
and ``inner_max`` caps the Newton iterations.  Each trial costs one
``linearize`` sweep, which gives its residual, the Jacobian of the next
solve and, for the accepted trial, the new state's gradient and, for a
constant exponent, its energy.  The state carries its Jacobian, so a
step, and a retry after a rejected one, solves first with the Jacobian of
the trial that made the state.

Along the run the engine records, per accepted step, the energy balance
residual |sum_k dt_k ||(u_{k+1}-u_k)/dt_k||_2^2 + E(u_n) - E(u_0)|, the
probe-space norm, and the state's position relative to the potential well;
crossing the blow-up cap on the L^2 norm terminates the run, and the last
sample's time estimates the blow-up time, while a float overflow before
the cap terminates it as NonFinite, without one: the updated values are
refused by ``GridFunction``, or the state's energy by ``make_state``.
"""

from dataclasses import dataclass

import numpy as np

from .energy import _reaction, _well_class, energy
from .errors import AuditFailed, InnerSolveStalled, NonFinite
from .grid import GridFunction, l2_norm
from .modular import EPS, exponent_values, luxemburg_norm

__all__ = [
    "StepControl",
    "SimState",
    "Sample",
    "TrajectoryRecord",
    "AuditResult",
    "make_state",
    "step_explicit",
    "step_imex",
    "run",
    "blowup_inequality_audit",
    "REACHED_FINAL_TIME",
    "BLOWUP_CAP_HIT",
    "STEP_UNDERFLOW",
    "MAX_STEPS",
    "NON_FINITE",
]

REACHED_FINAL_TIME = "ReachedFinalTime"
BLOWUP_CAP_HIT = "BlowUpCapHit"
STEP_UNDERFLOW = "StepUnderflow"
MAX_STEPS = "MaxSteps"
NON_FINITE = "NonFinite"

SCHEME_EXPLICIT = "explicit"
SCHEME_IMEX = "imex"


@dataclass
class StepControl:
    """Adaptive time-stepping parameters; also the config's ``step``
    section, whose keys follow this field order."""

    scheme: str = SCHEME_EXPLICIT
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    t_final: float = 1.0
    energy_increase_tol: float = 1e-10
    blowup_cap: float = 1e6
    max_steps: int = 200_000
    # IMEX proximal solve: stop once the residual norm is at most
    # inner_tol * initial norm, or the roundoff floor of step_imex when that
    # is larger; inner_max caps the Newton iterations
    inner_tol: float = 1e-8
    inner_max: int = 300

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.blowup_cap <= 0.0 or self.t_final <= 0.0:
            raise ValueError("blowup_cap and t_final must be positive")
        if self.scheme not in (SCHEME_EXPLICIT, SCHEME_IMEX):
            raise ValueError("scheme must be %r or %r" % (SCHEME_EXPLICIT, SCHEME_IMEX))
        if self.inner_max < 1:
            raise ValueError("inner_max must be at least 1, got %r" % self.inner_max)
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative, got %r" % self.max_steps)


@dataclass
class SimState:
    """State of the flow at one time: function, energy report, energy
    gradient, and the operator's Jacobian at u when an IMEX step has formed
    it (None otherwise); a step may fill ``jac`` in, never change it."""

    t: float
    u: GridFunction
    report: object
    grad: GridFunction
    jac: np.ndarray = None


@dataclass
class Sample:
    """Per accepted step summary; ``dt`` is the step that produced it."""

    t: float
    dt: float
    energy: float
    nehari: float
    phi: float  # l2^2 / 2
    l2: float
    lux_r: float
    modular_sp: float
    modular_q: float
    well_class: str
    residual: float
    grad_l2: float


@dataclass
class TrajectoryRecord:
    samples: list
    termination: str

    def column(self, name):
        return np.array([getattr(s, name) for s in self.samples])


def make_state(u, ctx, t=0.0, op_vals=None, jac=None):
    """The state at u; ``op_vals``, the operator values at u, swept here
    when the caller has none, give its gradient and, for a constant p, its
    energy's pair parts; ``jac`` is the operator's Jacobian at u, if
    formed.  Raises NonFinite when the energy overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        if op_vals is None:
            op_vals = ctx.apply(u.values)
        rep = energy(u, ctx, op_vals)
        if not np.isfinite(rep.energy):
            raise NonFinite("energy overflowed at t = %r" % t)
        grad = GridFunction(ctx.grid, op_vals - _reaction(ctx, u.values))
    return SimState(t=float(t), u=u, report=rep, grad=grad, jac=jac)


def step_explicit(state, dt, ctx):
    """Forward Euler step u+ = u - dt * grad E(u)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        u_new = state.u.values - dt * state.grad.values
    return make_state(GridFunction(ctx.grid, u_new), ctx, state.t + dt)


def step_imex(state, dt, ctx, inner_tol=StepControl.inner_tol,
              inner_max=StepControl.inner_max):
    """Proximal step: implicit in the nonlocal part, explicit reaction.

    u+ minimizes J(v) = ||v - u||^2/(2 dt) + I1(v) - <reaction(u), v>, a
    strictly convex objective, so it is the root of the residual
    r(v) = (v - u)/dt + A(v) - reaction(u).  Solved by damped Newton from
    v = u, where r(u) is the state's energy gradient: each of at most
    ``inner_max`` iterations solves (A'(v) + I/dt) delta = r(v) with the
    Jacobian of the operator, then halves the step from 1 (at most 60
    times) until the measure-weighted residual norm strictly decreases.
    One ``ctx.linearize`` per trial gives its residual and Jacobian, and
    the accepted trial's values the new state's gradient; the new state
    carries that trial's Jacobian.  The first solve uses ``state.jac``,
    formed here (one sweep at u, kept in the state) when None, so a step
    from a state that an IMEX step made sweeps nothing at u.  Converged
    once that norm is at most ``inner_tol`` times its initial value, or
    16 eps (||u||/dt + ||A(u)||) when that is larger, the roundoff of the
    residual's terms: a state with a small r(u) still takes a Newton step,
    and one near a steady state is not asked for less than roundoff.
    Otherwise raises InnerSolveStalled.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    wi = ctx.grid.interior_widths
    u0 = state.u.values
    react = _reaction(ctx, u0)

    def wnorm(r):
        return float(np.sqrt(np.dot(r * r, wi)))

    # r(u) = A(u) - reaction(u), since (u - u)/dt = 0
    v, r = u0, state.grad.values
    rnorm = wnorm(r)
    # A(u) = r(u) + reaction(u)
    target = max(inner_tol * rnorm, 16.0 * EPS * (wnorm(u0) / dt + wnorm(r + react)))
    op_vals = jac = None
    for _ in range(inner_max):
        if rnorm <= target:
            break
        if jac is None:
            if state.jac is None:
                state.jac = ctx.linearize(u0)[1]
            # the state's Jacobian stays as formed: shift a copy
            jac = state.jac.copy()
        jac[np.diag_indices_from(jac)] += 1.0 / dt
        delta = np.linalg.solve(jac, r)
        a = 1.0
        for _ in range(60):
            trial = v - a * delta
            at, jt = ctx.linearize(trial)
            rt = (trial - u0) / dt + at - react
            rtn = wnorm(rt)
            if rtn < rnorm:
                v, r, rnorm, op_vals, jac = trial, rt, rtn, at, jt
                break
            a *= 0.5
        else:
            break
    if rnorm <= target:
        return make_state(GridFunction(ctx.grid, v), ctx, state.t + dt, op_vals, jac)
    raise InnerSolveStalled(
        "proximal residual %g above tolerance %g" % (rnorm, target)
    )


def _sample_from(state, geometry, r_vals, dt, residual):
    """The sample of ``state``; ``r_vals`` is the probe exponent on the
    interior cells as ``exponent_values`` gives it, a float when constant."""
    lux = luxemburg_norm(state.u, r_vals).luxemburg_norm
    rep = state.report
    return Sample(
        t=state.t,
        dt=dt,
        energy=rep.energy,
        nehari=rep.nehari,
        phi=0.5 * rep.l2**2,
        l2=rep.l2,
        lux_r=lux,
        modular_sp=rep.gagliardo_modular,
        modular_q=rep.q_modular,
        well_class=_well_class(rep, geometry.depth_hat),
        residual=residual,
        grad_l2=l2_norm(state.grad),
    )


def run(u0, control, ctx, geometry, r_probe=2.0):
    """Integrate from u0 with energy-based step acceptance.

    Steps until the final time, the blow-up cap, a non-finite step (float
    overflow before the cap), step underflow, or the step budget; an
    initial state whose energy overflows raises NonFinite from
    ``make_state``.  A sample's norm past the float range reads inf; the
    errstate around the loop keeps the gradient's ``l2_norm``, whose
    squares overflow on a huge state, from warning.  Rejected steps halve
    dt and are not recorded.  The returned record holds one sample per
    accepted step plus the initial state; the probe exponent ``r_probe``
    of its ``lux_r`` column is evaluated once per run, to a float when
    constant.  At the blow-up cap, the last sample's t is the blow-up time
    estimate.  The blow-up analysis of the record is
    ``blowup_inequality_audit``.
    """
    ctx._check_function(u0)
    r_vals = exponent_values(r_probe, ctx.grid.interior_centers)
    state = make_state(u0, ctx, t=0.0)
    e0 = state.report.energy
    # the squares in the gradient's l2_norm overflow on a huge state: the
    # sample's grad_l2 reads inf, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        samples = [_sample_from(state, geometry, r_vals, dt=0.0, residual=0.0)]
        diss = 0.0
        dt = control.dt_init
        termination = None
        accepted = 0

        while True:
            remaining = control.t_final - state.t
            if remaining <= 1e-6 * dt:  # absorbs accumulated roundoff in t
                termination = REACHED_FINAL_TIME
                break
            if accepted >= control.max_steps:
                termination = MAX_STEPS
                break
            dt_eff = min(dt, remaining)
            try:
                if control.scheme == SCHEME_IMEX:
                    new = step_imex(
                        state, dt_eff, ctx, inner_tol=control.inner_tol,
                        inner_max=control.inner_max,
                    )
                else:
                    new = step_explicit(state, dt_eff, ctx)
            except NonFinite:
                termination = NON_FINITE
                break
            except InnerSolveStalled:
                new = None
            # a stalled inner solve is rejected like an energy increase
            if new is None or not (
                new.report.energy <= state.report.energy + control.energy_increase_tol
            ):
                dt = dt_eff / 2.0
                if dt < control.dt_min:
                    termination = STEP_UNDERFLOW
                    break
                continue
            du = new.u.values - state.u.values
            diss += float(np.dot(du**2, ctx.grid.interior_widths)) / dt_eff
            state = new
            accepted += 1
            residual = abs(diss + state.report.energy - e0)
            samples.append(
                _sample_from(state, geometry, r_vals, dt=dt_eff, residual=residual)
            )
            if state.report.l2 >= control.blowup_cap:
                termination = BLOWUP_CAP_HIT
                break

    return TrajectoryRecord(samples=samples, termination=termination)


@dataclass
class AuditResult:
    """The audit's columns, entry k for accepted step k read at its start
    sample k, and the constants measured from them."""

    t: np.ndarray
    dt: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    identity_gap: np.ndarray  # |phi' + I|, zero up to the step tolerance
    bound_margin: np.ndarray  # phi' - (-p+ E0 + (1 - p+/q-) rho_q), >= -tol
    ratio: np.ndarray  # phi' / phi^(q+/2) where phi > 1, nan elsewhere
    tol: np.ndarray
    rate_constant: float  # measured inf of phi' / phi^(q+/2) past phi > 1
    first_t_phi_above_one: float
    t_max_extrapolated: float = None  # set when the run hit the blow-up cap


#: the audit's step tolerance, in units of dt times the local rate scale
AUDIT_TOL_FACTOR = 5.0


def blowup_inequality_audit(record, summary):
    """Verify the discrete blow-up inequality chain on an E(u0) < 0 run.

    E(u0) is the energy of the record's first sample, and ``summary`` the
    validated exponent extrema.  Per accepted step: (i) the forward
    difference of phi matches rho_q - rho_sp up to a tolerance scaling with
    dt and the local rate of change; (ii) phi' >= -p+ E0 + (1 - p+/q-)
    rho_q up to the same tolerance; (iii) phi eventually exceeds 1 and the
    measured infimum of phi'/phi^(q+/2) beyond that point is strictly
    positive (the constant is reported, never assumed).  Raises
    AuditFailed at the first violating step, (i) before (ii), and before
    any step when E(u0) >= 0 or the record has no accepted step.  When the
    run hit the blow-up cap, the result also holds the blow-up time
    extrapolated from the last sample by integrating phi' = rate *
    phi^(q+/2).
    """
    samples = record.samples
    e0 = samples[0].energy
    if e0 >= 0.0:
        raise AuditFailed("not run: E(u0) >= 0")
    if len(samples) < 2:
        raise AuditFailed("not run: no accepted steps")
    p_plus, q_minus, q_plus = summary.p_plus, summary.q_minus, summary.q_plus
    t, dt, phi, nehari, grad_l2, rho_q = (
        record.column(name) for name in ("t", "dt", "phi", "nehari", "grad_l2", "modular_q"))
    # step k runs from sample k to sample k + 1, and is read at sample k
    dt = dt[1:]
    phi_prime = np.diff(phi) / dt
    tol = AUDIT_TOL_FACTOR * dt * (1.0 + grad_l2[:-1]**2 + np.abs(np.diff(nehari)) / dt)
    gap = np.abs(phi_prime + nehari[:-1])
    margin = phi_prime - (-p_plus * e0 + (1.0 - p_plus / q_minus) * rho_q[:-1])
    t, phi = t[:-1], phi[:-1]
    bad = np.flatnonzero((gap > tol) | (margin < -tol))
    if bad.size:
        k = int(bad[0])
        if gap[k] > tol[k]:
            raise AuditFailed(
                "phi' identity off by %g (tol %g) at step %d" % (gap[k], tol[k], k), step=k)
        raise AuditFailed(
            "phi' lower bound violated by %g (tol %g) at step %d" % (-margin[k], tol[k], k),
            step=k)
    above = phi > 1.0
    if not above.any():
        raise AuditFailed("phi never exceeded 1; blow-up regime not reached")
    ratio = np.full_like(phi, np.nan)
    ratio[above] = phi_prime[above] / phi[above] ** (q_plus / 2.0)
    rate = float(ratio[above].min())
    if rate <= 0.0:
        raise AuditFailed("measured rate constant is not positive past phi > 1")
    t_ext = None
    if record.termination == BLOWUP_CAP_HIT:
        last = samples[-1]
        t_ext = last.t + last.phi ** (1.0 - q_plus / 2.0) / (rate * (q_plus / 2.0 - 1.0))
    return AuditResult(t=t, dt=dt, phi=phi, phi_prime=phi_prime, identity_gap=gap,
                       bound_margin=margin, ratio=ratio, tol=tol, rate_constant=rate,
                       first_t_phi_above_one=float(t[above][0]), t_max_extrapolated=t_ext)
