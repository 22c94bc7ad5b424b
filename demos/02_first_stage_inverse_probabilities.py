#!/usr/bin/env python3
"""Inside the first stage: series 2SLS for inverse selection probabilities.

The moment condition E[D g(Y, X) | W, X] = 1 identifies g = 1/P(observed)
even though it depends on the outcome. We expand g in a quadratic B-spline
basis of Y plus a linear term in X, instrument with a richer spline basis
of (W, X). The logical bound g >= 1 is enforced twice over: the
constrained sieve fit projects g onto the cone {h >= 1} in coefficient
space, and the weights floor the fitted values at one, max(g_u, 1).
"""

import numpy as np

from selqr import SimulationSpec, generate, moment_residual, weights
from selqr.first_stage import cone_project, estimate_unconstrained

gd = generate(SimulationSpec("C", "M2", n=10000, reps=1, seed=11), 0)
data = gd.data

fit = estimate_unconstrained(data)
print(f"outcome basis J = {fit.designs.phi.shape[1]}, "
      f"instrument basis K = {fit.designs.b.shape[1]}")
print(f"beta_u = {np.array2string(fit.beta_u, precision=3)}")

resid = moment_residual(fit)
print(f"moment residual max |E_n[b (1 - D g_u)]| = {np.abs(resid).max():.2e}")
print()

# how close is the fitted g to the true inverse probability?
sel = data.selected
g_u = fit.designs.phi[sel] @ fit.beta_u
g_true = 1.0 / gd.p[sel]
ys, xs = data.y[sel], data.x[sel, 0]
box = ((ys >= np.quantile(ys, 0.25)) & (ys <= np.quantile(ys, 0.75))
       & (xs >= np.quantile(xs, 0.25)) & (xs <= np.quantile(xs, 0.75)))
print(f"true 1/p on selected rows:   [{g_true.min():.2f}, {g_true.max():.2f}]")
print(f"fitted g_u on selected rows: [{g_u.min():.2f}, {g_u.max():.2f}]")
print(f"mean |g_u - 1/p|, central quantile box: {np.abs(g_u - g_true)[box].mean():.3f}")
print(f"fraction of fitted values below the g >= 1 bound: "
      f"{(g_u < 1).mean():.3f}")
print()

fit = cone_project(fit, data)
print("after cone projection:")
print(f"  beta_c = {np.array2string(fit.beta_c, precision=3)}")
print(f"  active constraints: {fit.kkt['active_set_size']}, "
      f"KKT stationarity {fit.kkt['stationarity']:.1e}")
print(f"  min over constraint set of g_c: "
      f"{(fit.constraint_points @ fit.beta_c).min():.6f}")

wv = weights(fit, data)
omega = wv.omega[sel]
print()
print(f"weights max(g_u, 1) on observed rows: mean {omega.mean():.3f} "
      f"(sample identity n/n_selected = {data.n / data.n_selected:.3f}), "
      f"max {omega.max():.2f}")
print("every unobserved row carries weight exactly 0, every observed row >= 1.")
