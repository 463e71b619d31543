#!/usr/bin/env python3
# Ray geometry of the energy: scaling manifold, well depth, classification.
#
# Along every ray t -> t*u the energy rises, peaks exactly where the
# manifold functional I(t u) vanishes, and then dives to minus infinity.
# The least peak over all rays is the well depth; states below that depth
# split into the well (I > 0) and its exterior (I < 0).
#
# Usage: python3 demos/04_energy_landscape.py
import numpy as np

import fracflow as ff

dom = ff.Domain(-1.0, 1.0, 8.0)
grid = ff.Grid(dom, 32, 128)
field = ff.make_exponent_field(0.4, domain=dom)
ctx = ff.build_context(grid, field)

bump = ff.standard_bump(grid)
lam = ff.nehari_lambda(bump, ctx)
print("manifold scaling of the unit bump: lambda = %.6f" % lam)
print("E at the crossing: %.6f" % ff.energy(bump.scaled(lam), ctx).energy)
print("E at 1.5x the crossing: %.3e (zero by the ray algebra at p=2, q=3)"
      % ff.energy(bump.scaled(1.5 * lam), ctx).energy)
print("E at 3x the crossing: %.1f" % ff.energy(bump.scaled(3.0 * lam), ctx).energy)

print("\n== well geometry (projected descent) ==")
# the estimate descends from four starts, the depth search from the bump
lam_hat = ff.estimate_embedding_constant(ctx, n_starts=4, iters=400, rng=0)
r_hat, lower_bound = ff.depth_lower_bound(lam_hat, ctx.summary)
geom = ff.well_depth(ctx, iters=400)
print("embedding constant estimate: %.6f" % lam_hat)
print("bound constant R:            %.6f" % r_hat)
print("well depth estimate:         %.6f" % geom.depth_hat)
print("depth lower bound:           %.6f" % lower_bound)
w = geom.minimizer
rep = ff.energy(w, ctx)
print("minimizer check: E = %.6f, I = %.2e" % (rep.energy, rep.nehari))

print("\n== classification along the minimizer ray ==")
for t in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
    u = w.scaled(t)
    print("t = %-4g -> %s" % (t, ff.classify(u, geom, ctx)))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ts = np.linspace(0.0, 1.8, 240)
    es = [ff.energy(w.scaled(float(t)), ctx).energy for t in ts]
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    axes[0].plot(ts, es)
    axes[0].axhline(geom.depth_hat, color="crimson", ls="--", lw=0.8, label="well depth")
    axes[0].axvline(1.0, color="gray", lw=0.5)
    axes[0].set_xlabel("scaling t along the minimizer ray")
    axes[0].set_ylabel("E(t w)")
    axes[0].legend()
    axes[1].plot(grid.interior_centers, w.values)
    axes[1].set_xlabel("x")
    axes[1].set_ylabel("depth minimizer")
    fig.tight_layout()
    fig.savefig("demo04_landscape.png", dpi=120)
    print("\nwrote demo04_landscape.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
