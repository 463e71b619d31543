#!/usr/bin/env python3
# The discrete fractional p(x)-Laplacian: shape, duality, monotonicity.
#
# The operator applied to a spike shows the nonlocal signature (algebraic
# tails instead of compact stencils).  Because the discrete operator is the
# exact gradient of the nonlocal energy, the pairing <Lu, u> reproduces the
# two-point modular to machine precision, and the operator is strictly
# monotone.
#
# Usage: python3 demos/03_nonlocal_operator.py
import numpy as np

import fracflow as ff

rng = np.random.default_rng(5)
dom = ff.Domain(-1.0, 1.0, 8.0)
grid = ff.Grid(dom, 32, 32)
field = ff.make_exponent_field(0.4, domain=dom)
ctx = ff.build_context(grid, field)

print("== operator applied to a centered spike ==")
spike_vals = np.zeros(grid.n)
spike_vals[grid.n // 2] = 1.0
spike = ff.GridFunction(grid, spike_vals)
Ls = ff.apply_operator(spike, ctx)
mid = grid.n // 2
print("center value:", Ls.values[mid])
print("decay along the row:", np.round(Ls.values[mid : mid + 8], 4))

print("\n== duality: <Lu, u> equals the two-point modular ==")
for _ in range(3):
    u = ff.GridFunction(grid, rng.standard_normal(grid.n))
    pairing = ff.weak_form(u, u, ctx)
    modular = ff.gagliardo_modular(u, ctx)
    print("pairing %.15g | modular %.15g | diff %.2e"
          % (pairing, modular, abs(pairing - modular)))

print("\n== strict monotonicity of the operator ==")
gaps = []
for _ in range(200):
    a = ff.GridFunction(grid, rng.standard_normal(grid.n))
    b = ff.GridFunction(grid, rng.standard_normal(grid.n))
    gaps.append(ff.monotonicity_gap(a, b, ctx))
print("min gap over 200 random pairs: %.6g (all must be > 0)" % min(gaps))

print("\n== the scalar convexity inequality behind the gradient identity ==")
r = rng.uniform(-5, 5, 100_000)
s_val = rng.uniform(-5, 5, 100_000)
p = rng.uniform(2, 6, 100_000)
print("holds on 10^5 random triples:", bool(np.all(ff.convexity_inequality_check(r, s_val, p))))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(grid.interior_centers, Ls.values, ".-", ms=4)
    ax.set_xlabel("x")
    ax.set_ylabel("operator value at a unit spike")
    ax.set_yscale("symlog", linthresh=1e-2)
    fig.tight_layout()
    fig.savefig("demo03_operator_spike.png", dpi=120)
    print("wrote demo03_operator_spike.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
