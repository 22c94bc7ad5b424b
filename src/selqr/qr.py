"""Exact weighted quantile regression.

minimize_theta  sum_i w_i * rho_tau(y_i - Z_i' theta)

solved in its dual form (Koenker 2005, Quantile Regression, sec. 6.2)

maximize_a  y'a   s.t.  Z'a = 0,  -(1-tau) w_i <= a_i <= tau w_i,

an LP with d equality rows and n box-bounded columns, by HiGHS dual
simplex. theta is the vector of multipliers of the equality rows. At a
basic solution the d basic columns are rows whose residual is zero, so
theta is a vertex of the primal problem. Where exactly d residuals are
zero, theta is re-solved from those rows. Every solution is checked
against the exact Koenker-Bassett optimality condition
(`kb_stationarity`).

The same inputs always give the same output. When the minimum is unique,
which is the generic case for continuous data, theta does not depend on
the order of the rows beyond rounding. In a flat minimum, the optimal
vertex returned depends on the solver's pivoting, so a row permutation
can return a different vertex with the same objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, lsq_linear

from .errors import InputError, NumericalError

# ulp doublings _interpolate tries; 2**20 ulps stays below solve's zero_tol
INTERPOLATE_STEPS = 21


def check_loss(u, tau: float):
    """rho_tau(u) = u * (tau - 1{u < 0})."""
    u = np.asarray(u, dtype=float)
    out = u * (tau - (u < 0))
    return float(out) if out.ndim == 0 else out


def quantile_score(u, tau: float):
    """psi_tau(u) = tau - 1{u < 0}; the convention at u = 0 is psi = tau."""
    u = np.asarray(u, dtype=float)
    out = tau - (u < 0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class QuantileProblem:
    """Design Z (first column constant), outcome y, weights w >= 0, level tau.

    Rows with w_i = 0 are dropped before solving; their y values may be NaN.
    """

    Z: np.ndarray
    y: np.ndarray
    w: np.ndarray
    tau: float

    def __post_init__(self):
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        y = np.asarray(self.y, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        if not 0.0 < self.tau < 1.0:
            raise InputError("tau must lie strictly inside (0, 1)")
        if Z.shape[0] != len(y) or len(w) != len(y):
            raise InputError("Z, y, w must share the row count")
        if (w < 0).any():
            raise InputError("weights must be nonnegative")
        keep = w > 0
        if keep.sum() < Z.shape[1]:
            raise InputError("fewer effectively weighted rows than coefficients")
        if not np.isfinite(y[keep]).all():
            raise InputError("non-finite outcome on a positively weighted row")


@dataclass(frozen=True)
class QuantileSolution:
    theta: np.ndarray
    objective: float
    active_set: tuple[int, ...]   # row indices interpolated at the vertex
    tau: float


def solve(problem: QuantileProblem) -> QuantileSolution:
    """Exact minimizer of the weighted check loss, from the dual LP.

    HiGHS dual simplex solves max y'a s.t. Z'a = 0 over the box
    -(1-tau) w <= a <= tau w, and theta is read from the multipliers of the
    d equality rows. Where exactly d residuals are zero up to rounding,
    theta is re-solved from those rows, so the vertex interpolates them to
    rounding, with nonnegative residuals (`_interpolate`). The returned
    point then passes the Koenker-Bassett certificate (`kb_stationarity`),
    computed from the data and theta alone; a point that fails it raises
    NumericalError.
    """
    keep = problem.w > 0
    Z, y, w = problem.Z[keep], problem.y[keep], problem.w[keep]
    d = Z.shape[1]
    if np.linalg.matrix_rank(Z) < d:
        raise NumericalError("rank-deficient quantile design")
    tau = problem.tau

    # a = 0 is feasible and the box bounds the objective, so a nonzero
    # status can only be an iteration or time limit
    res = linprog(-y, A_eq=Z.T, b_eq=np.zeros(d),
                  bounds=np.column_stack([-(1 - tau) * w, tau * w]),
                  method="highs-ds")
    if res.status != 0:
        raise NumericalError(f"quantile LP failed: {res.message}")

    theta = -res.eqlin.marginals
    zero_tol = 1e-9 * max(1.0, np.abs(y).max())
    zero = np.abs(y - Z @ theta) <= zero_tol
    if zero.sum() == d:
        theta = _interpolate(Z, y, zero, theta)
    resid = y - Z @ theta
    zero = np.abs(resid) <= zero_tol
    objective = float(np.sum(w * check_loss(resid, tau)))
    slack = 1e-6 * max(1.0, float(np.abs(w @ np.abs(Z)).max()))
    if kb_stationarity(Z, resid, w, tau, zero_tol=zero_tol) > slack:
        raise NumericalError("quantile solution violates the optimality certificate")
    orig = np.flatnonzero(keep)
    return QuantileSolution(theta=theta, objective=objective,
                            active_set=tuple(int(i) for i in orig[zero]), tau=tau)


def _interpolate(Z, y, rows, theta):
    """Re-solve theta from the d rows of a nondegenerate vertex.

    Their residuals y - Z theta, computed over all rows as solve computes
    them, come out nonnegative, so quantile_score gives them tau, its value
    at zero, rather than the sign of rounding noise: when the exact solve
    leaves one negative, the targets are lowered by 1, 2, 4, ... ulps of
    max |y_rows| until none is. Returns the given theta if Z[rows] is
    singular.
    """
    Zh, yh = Z[rows], y[rows]
    shift, ulp = 0.0, np.spacing(np.abs(yh).max())
    for k in range(INTERPOLATE_STEPS):
        try:
            theta = np.linalg.solve(Zh, yh - shift)
        except np.linalg.LinAlgError:
            return theta
        if ((y - Z @ theta)[rows] >= 0).all():
            break
        shift = ulp * 2.0 ** k
    return theta


def kb_stationarity(Z, resid, w, tau, zero_tol=1e-9) -> float:
    """Distance of theta from the Koenker-Bassett optimality condition.

    theta minimizes sum_i w_i rho_tau(r_i) exactly when one score vector a,
    with a_i = tau w_i where r_i > 0, a_i = -(1-tau) w_i where r_i < 0 and
    a_i in [-(1-tau) w_i, tau w_i] on the zero residuals h, satisfies
    Z'a = 0 (Koenker 2005, Thm 2.1). With base the fixed part of Z'a, the
    zero rows must solve Z_h' a_h = -base inside their box. At a
    nondegenerate vertex (|h| = d, Z_h nonsingular) a_h is the unique
    solution of that d x d system, clipped to the box; otherwise it is the
    bounded least-squares solution. Returns max_k |(Z'a)_k|, which is zero,
    up to rounding, exactly when theta is optimal.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    resid = np.asarray(resid, dtype=float)
    w = np.asarray(w, dtype=float)
    zero = np.abs(resid) <= zero_tol
    score = np.where(resid < 0, (tau - 1) * w, tau * w)
    base = (score * ~zero) @ Z
    Zh_t, lo, hi = Z[zero].T, (tau - 1) * w[zero], tau * w[zero]
    if Zh_t.shape[1] == 0:
        return float(np.abs(base).max())
    a_h = None
    if Zh_t.shape[0] == Zh_t.shape[1]:
        try:
            a_h = np.clip(np.linalg.solve(Zh_t, -base), lo, hi)
        except np.linalg.LinAlgError:
            pass
    if a_h is None:
        a_h = lsq_linear(Zh_t, -base, bounds=(lo, hi), method="bvls").x
    return float(np.abs(base + Zh_t @ a_h).max())

