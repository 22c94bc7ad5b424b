#!/usr/bin/env python3
"""Selection-corrected distribution function vs the naive empirical CDF.

Reweighting each observed outcome by its estimated inverse selection
probability recovers the latent outcome distribution; the plain ECDF of
the observed subsample is shifted wherever selection is outcome-dependent.
"""

import numpy as np

from selqr import SimulationSpec, corrected_cdf, generate
from selqr.first_stage import estimate_unconstrained

gd = generate(SimulationSpec("C", "M2", n=20000, reps=1, seed=23), 0)
data = gd.data

fit = estimate_unconstrained(data)
cdf = corrected_cdf(fit, data)

# latent benchmark: the full pre-selection sample the generator retained
latent = np.sort(gd.y_star)
grid = cdf.support
f_latent = np.searchsorted(latent, grid, side="right") / len(latent)

y_obs = np.sort(data.y[data.selected])
f_ecdf = np.searchsorted(y_obs, grid, side="right") / len(y_obs)
f_corr = cdf.evaluate(grid)

print(f"sup |ECDF(observed) - F(latent)|    = {np.abs(f_ecdf - f_latent).max():.4f}")
print(f"sup |corrected CDF - F(latent)|     = {np.abs(f_corr - f_latent).max():.4f}")
print()

print(f"{'tau':>6s} {'latent quantile':>16s} {'observed ECDF':>14s} "
      f"{'corrected':>10s}")
for tau in (0.1, 0.25, 0.5, 0.75, 0.9):
    q_lat = float(np.quantile(gd.y_star, tau))
    q_obs = float(np.quantile(data.y[data.selected], tau))
    q_cor = cdf.quantile(tau)
    print(f"{tau:6.2f} {q_lat:16.3f} {q_obs:14.3f} {q_cor:10.3f}")

print()
print("Selection drops low outcomes more often, so the observed quantiles")
print("sit above the latent ones; the corrected CDF pulls them back down.")
