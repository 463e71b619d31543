#!/usr/bin/env python3
# Admissible variable exponents: what the validator accepts and why.
#
# The flow needs a symmetric two-point exponent p(x,y) >= 2, a reaction
# exponent q(x) strictly between p+ and the critical embedding bound
# p*_s(x)/2 + 1, and a fractional order s with s*p+ < N.  This script
# validates the constant workhorse pair (p=2, q=3, s=0.4), shows a variable
# pair that passes, and demonstrates each way a field can fail.
#
# Usage: python3 demos/01_exponent_fields.py
import numpy as np

import fracflow as ff

dom = ff.Domain(-1.0, 1.0, 8.0)

print("== constant exponents: p = 2, q = 3, s = 0.4 ==")
field = ff.make_exponent_field(0.4, domain=dom)
summary = ff.validate_assumptions(field, dom)
print("extrema:", summary)
print("critical exponent at x=0:", ff.critical_exponent(field, 0.0))
print("admissible q window: (%g, %g)" % (summary.p_plus, summary.min_critical_bound))

print("\n== variable exponents: p = 2 + 0.01 (x^2+y^2), q = 3 + 0.2 x^2, s = 0.3 ==")
var = ff.make_exponent_field(0.3, p=(2.0, 0.02), q=(3.0, 0.2), domain=dom)
vs = ff.validate_assumptions(var, dom)
print("extrema:", vs)
xs = np.linspace(-1, 1, 9)
print("q(x) on the interval:", np.round(var.q(xs), 3))
print("pointwise bound p*_s(x)/2 + 1:",
      np.round([ff.critical_exponent(var, x) / 2 + 1 for x in xs], 3))

print("\n== three ways to fail ==")
for label, bad in [
    ("s too large (a4)", dict(s=0.6)),
    ("q below p+ (a3)", dict(s=0.4, q=(2.0, 0.0))),
    ("q above the critical bound (a3)", dict(s=0.4, q=(7.0, 0.0))),
]:
    try:
        ff.validate_assumptions(ff.make_exponent_field(domain=dom, **bad), dom)
    except ff.AssumptionViolated as exc:
        print("%-32s -> %s" % (label, exc))

# the critical exponent grows with the fractional order
svals = np.linspace(0.05, 0.45, 64)
crits = [ff.critical_exponent(ff.make_exponent_field(s), 0.0) for s in svals]
print("\np*_s rises from %.3f (s=%.2f) to %.3f (s=%.2f)"
      % (crits[0], svals[0], crits[-1], svals[-1]))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(svals, crits)
    ax.set_xlabel("fractional order s")
    ax.set_ylabel("critical exponent p*_s (pbar = 2, N = 1)")
    ax.axhline(2.0, color="gray", lw=0.5)
    fig.tight_layout()
    fig.savefig("demo01_critical_exponent.png", dpi=120)
    print("wrote demo01_critical_exponent.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
