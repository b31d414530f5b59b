# # The Generalized Pareto tail model and its closed forms
#
# A fitted tail model places an atom of mass `1 - k/m` at a threshold and a
# GPD exceedance law above it.  Its value-at-risk, CVaR, and extremal
# upper-semideviation all have closed forms; this walkthrough evaluates them
# and confirms each one against direct numerical integration.

import numpy as np

from evtrisk import (
    UNIFORM01,
    RandomStream,
    TailParams,
    cvar,
    extremal_semideviation,
    semideviation_by_quadrature,
    tail_cdf,
    tail_quantile,
    value_at_risk,
)

# A tail model that reproduces Pareto(2) exactly above its 0.90-quantile:
# shape 1/2, threshold sqrt(10), scale threshold/2, tail fraction 10%.

s = np.sqrt(10.0)
params = TailParams(k=10, m=100, gamma=0.5, threshold=s, scale=s / 2.0)
print("support:", params.support)
print("model mean:", params.mean())

# The closed forms at the 1% level.  For Pareto(2) the exact answers are
# known by hand: the 0.99-quantile is 10, the conditional tail mean is 20,
# and the semideviation above the mean 2 in the worst 1% of cases is 0.18.

alpha = 0.01
v = value_at_risk(params, alpha)
c = cvar(params, alpha)
rho = extremal_semideviation(params, alpha, sample_mean=2.0)
print(f"value_at_risk({alpha}) = {v:.12f}   (exact: 10)")
print(f"cvar({alpha})          = {c:.12f}   (exact: 20)")
print(f"semideviation         = {rho:.12f}   (exact: 0.18)")

# Independent check: integrate the tail density directly instead of using
# the closed form.  Agreement is at quadrature precision.

rho_quad = semideviation_by_quadrature(params, alpha, sample_mean=2.0)
print(f"quadrature            = {rho_quad:.12f}   "
      f"(rel diff {abs(rho - rho_quad) / rho:.2e})")

# The model CDF is a proper distribution function with an atom at the
# threshold: it jumps from 0 to 1 - k/m there and is continuous beyond.

grid = np.array([s - 0.5, s, s + 0.5, v, 2 * v])
print("\nz          F(z)")
for z, f in zip(grid, tail_cdf(params, grid)):
    print(f"{z:9.4f}  {f:.6f}")

# The quantile function inverts the CDF and resolves the atom: every level
# up to 1 - k/m maps back to the threshold.  It doubles as an exact
# inverse-transform sampler for the model.

levels = np.array([0.0, 0.5, 0.9, 0.99, 0.999])
print("\nu        quantile(u)")
for u, z in zip(levels, tail_quantile(params, levels)):
    print(f"{u:.3f}   {z:.6f}")

draws = tail_quantile(params, UNIFORM01.sample(1_000_000, RandomStream(7)))
print("\nshare of draws at the atom:", np.mean(draws == params.threshold),
      " (expect 0.90)")
print("sample mean of draws:", draws.mean(), " vs model mean", params.mean())
