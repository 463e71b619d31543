#!/usr/bin/env python3
# Finite-time blow-up from the well exterior at negative energy.
#
# Twice the depth minimizer has negative energy and sits in the well
# exterior; the exterior is invariant, phi(t) = |u|_2^2 / 2 grows strictly,
# and the growth obeys the differential inequality chain: phi' equals the
# modular imbalance, stays above the affine bound in the reaction modular,
# and past phi > 1 dominates a power of phi whose measured rate constant
# extrapolates the blow-up time.
#
# Usage: python3 demos/06_finite_time_blowup.py
import numpy as np

import fracflow as ff

dom = ff.Domain(-1.0, 1.0, 8.0)
grid = ff.Grid(dom, 32, 128)
field = ff.make_exponent_field(0.4, domain=dom)
ctx = ff.build_context(grid, field)
geom = ff.well_depth(ctx, iters=400)

u0 = geom.minimizer.scaled(2.0)
e0 = ff.energy(u0, ctx).energy
print("initial state: E = %.3f < 0, class %s" % (e0, ff.classify(u0, geom, ctx)))

control = ff.StepControl(dt_init=1e-3, dt_min=1e-14, dt_max=1e-2,
                         t_final=10.0, max_steps=200_000)
record = ff.run(u0, control, ctx, geom, r_probe=2.0)
audit = ff.blowup_inequality_audit(record, ctx.summary)
print("termination:", record.termination)
print("cap hit at t = %.6f after %d accepted steps"
      % (record.samples[-1].t, len(record.samples) - 1))
print("blow-up time extrapolated from the rate constant: %.6f"
      % audit.t_max_extrapolated)

phis = record.column("phi")
print("phi monotone increasing:", bool(np.all(np.diff(phis) > 0)))
print("exterior invariant:", {s.well_class for s in record.samples} == {ff.IN_EXTERIOR})

print("\n== inequality audit over %d steps ==" % len(audit.t))
print("worst identity gap / step tolerance: %.3f (must stay <= 1)"
      % np.max(audit.identity_gap / audit.tol))
print("smallest bound margin:   %.3e" % np.min(audit.bound_margin))
print("phi exceeds 1 from t = %.4f" % audit.first_t_phi_above_one)
print("measured rate constant:  %.6f" % audit.rate_constant)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ts = record.column("t")
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    axes[0].semilogy(ts, phis)
    axes[0].set_xlabel("t")
    axes[0].set_ylabel("phi(t)")
    axes[0].axvline(audit.t_max_extrapolated, color="crimson", ls="--", lw=0.8,
                    label="extrapolated blow-up time")
    axes[0].legend()
    axes[1].semilogy(audit.t, audit.phi_prime, label="phi'")
    axes[1].semilogy(audit.t, np.maximum(audit.phi_prime - audit.bound_margin, 1e-300),
                     "--", label="affine lower bound")
    axes[1].set_xlabel("t")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("demo06_blowup.png", dpi=120)
    print("wrote demo06_blowup.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
