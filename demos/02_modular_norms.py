#!/usr/bin/env python3
# Variable-exponent modulars vs Luxemburg norms: the envelope picture.
#
# A modular (integral of |u|^h(x)) is not a power of a norm once h varies,
# but the two stay wedged between the envelope curves t^h- and t^h+ of the
# norm t.  This script samples random states, plots modular against norm
# for a variable exponent, and checks the same relations for the two-point
# Gagliardo modular and its seminorm.
#
# Usage: python3 demos/02_modular_norms.py
import numpy as np

import fracflow as ff

rng = np.random.default_rng(3)
dom = ff.Domain(-1.0, 1.0, 8.0)
grid = ff.Grid(dom, 32, 32)
field = ff.make_exponent_field(0.4, domain=dom)
ctx = ff.build_context(grid, field)

h = lambda x: 2.0 + x**2  # exponent between 2 and 3 on the interval

print("== constant exponent sanity: norm equals modular^(1/h) ==")
u = ff.GridFunction(grid, rng.standard_normal(grid.n))
for h0 in (2.0, 3.5):
    rep = ff.luxemburg_norm(u, h0)
    print("h = %.1f: norm %.8f vs modular^(1/h) %.8f"
          % (h0, rep.luxemburg_norm, rep.modular_value ** (1 / h0)))

print("\n== variable exponent: envelope inequalities on 400 random states ==")
norms, mods = [], []
for _ in range(400):
    scale = 10.0 ** rng.uniform(-1.5, 1.5)
    v = ff.GridFunction(grid, scale * rng.standard_normal(grid.n))
    rep = ff.luxemburg_norm(v, h)
    norms.append(rep.luxemburg_norm)
    mods.append(rep.modular_value)
norms = np.array(norms)
mods = np.array(mods)
lo = np.minimum(norms**2, norms**3)
hi = np.maximum(norms**2, norms**3)
ok = (mods >= lo * (1 - 1e-8)) & (mods <= hi * (1 + 1e-8))
print("states inside the [t^2, t^3] envelope: %d/400" % int(ok.sum()))

print("\n== two-point modular and seminorm ==")
rep = ff.gagliardo_seminorm(u, ctx)
print("seminorm %.6f, modular %.6f, modular^(1/2) %.6f (p = 2 everywhere)"
      % (rep.luxemburg_norm, rep.modular_value, rep.modular_value**0.5))
print("root-find used %d evaluations; final bracket (%.6f, %.6f)"
      % (rep.bisection_iterations, *rep.bracket))

print("\n== Holder inequality in the variable-exponent pairing ==")
hc = ff.modular.conjugate_exponent_values(h, grid.interior_centers)
const = 1.0 / 2.0 + 1.0 / float(np.min(hc))  # 1/h- + 1/h'-
worst = 0.0
for _ in range(200):
    a = ff.GridFunction(grid, rng.standard_normal(grid.n))
    b = ff.GridFunction(grid, rng.standard_normal(grid.n))
    lhs = ff.integrate(ff.GridFunction(grid, np.abs(a.values * b.values)))
    bound = const * ff.luxemburg_norm(a, h).luxemburg_norm * ff.luxemburg_norm(b, hc).luxemburg_norm
    worst = max(worst, lhs / bound)
print("max ratio lhs/bound over 200 pairs: %.4f (must stay <= 1)" % worst)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ts = np.logspace(np.log10(norms.min()), np.log10(norms.max()), 200)
    fig, ax = plt.subplots(figsize=(6, 4.5))
    ax.loglog(norms, mods, ".", ms=3, label="sampled states")
    ax.loglog(ts, ts**2, "k--", lw=0.8, label="t^2 and t^3 envelopes")
    ax.loglog(ts, ts**3, "k--", lw=0.8)
    ax.set_xlabel("Luxemburg norm")
    ax.set_ylabel("modular")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo02_envelopes.png", dpi=120)
    print("wrote demo02_envelopes.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
