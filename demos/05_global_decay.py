#!/usr/bin/env python3
# Global existence inside the potential well: decay to the origin.
#
# Starting at half the depth minimizer (energy below the depth, manifold
# functional positive) the flow stays in the well forever: the energy
# falls monotonically, the state never crosses the manifold, and every
# probed Lebesgue norm decays to zero.  The energy-balance residual tracks
# the dissipation identity and shrinks linearly with the step size.
#
# Usage: python3 demos/05_global_decay.py
import numpy as np

import fracflow as ff

dom = ff.Domain(-1.0, 1.0, 8.0)
grid = ff.Grid(dom, 32, 128)
field = ff.make_exponent_field(0.4, domain=dom)
ctx = ff.build_context(grid, field)
geom = ff.well_depth(ctx, iters=400)

u0 = geom.minimizer.scaled(0.5)
rep0 = ff.energy(u0, ctx)
print("initial state: E = %.4f (< depth %.4f), I = %.4f > 0, class %s"
      % (rep0.energy, geom.depth_hat, rep0.nehari, ff.classify(u0, geom, ctx)))

control = ff.StepControl(dt_init=1e-3, dt_min=1e-12, dt_max=1e-2,
                         t_final=1.0, max_steps=50_000)
record = ff.run(u0, control, ctx, geom, r_probe=lambda x: 2.0 + x**2)
print("termination:", record.termination, "after", len(record.samples) - 1, "steps")

classes = sorted({s.well_class for s in record.samples})
print("well classes seen:", classes)
l2s = record.column("l2")
print("l2 decay:   %.4f -> %.6f (ratio %.2e)" % (l2s[0], l2s[-1], l2s[-1] / l2s[0]))
lux = record.column("lux_r")
print("probe-norm decay (r(x) = 2 + x^2): ratio %.2e" % (lux[-1] / lux[0]))
print("gradient-norm ratio (equilibrium approach): %.2e"
      % (record.samples[-1].grad_l2 / record.samples[0].grad_l2))
print("final energy-balance residual: %.3e" % record.samples[-1].residual)

print("\n== dissipation identity residual vs step size ==")
for k in range(3):
    dt = 1e-3 / 2**k
    ctl = ff.StepControl(dt_init=dt, dt_min=1e-12, dt_max=dt, t_final=0.25, max_steps=50_000)
    rec = ff.run(u0, ctl, ctx, geom)
    print("dt = %-8g residual = %.6e" % (dt, rec.samples[-1].residual))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ts = record.column("t")
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    axes[0].semilogy(ts, l2s, label="|u|_2")
    axes[0].semilogy(ts, lux, label="|u| in the probe space")
    axes[0].set_xlabel("t")
    axes[0].legend()
    axes[1].plot(ts, record.column("energy"), label="E(u(t))")
    axes[1].plot(ts, record.column("nehari"), label="I(u(t))")
    axes[1].axhline(geom.depth_hat, color="crimson", ls="--", lw=0.8, label="depth")
    axes[1].set_xlabel("t")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("demo05_decay.png", dpi=120)
    print("wrote demo05_decay.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
