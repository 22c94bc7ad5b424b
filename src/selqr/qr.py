"""Exact weighted quantile regression.

minimize_theta  sum_i w_i * rho_tau(y_i - Z_i' theta)

solved in its dual form (Koenker 2005, Quantile Regression, sec. 6.2)

maximize_a  y'a   s.t.  Z'a = 0,  -(1-tau) w_i <= a_i <= tau w_i,

an LP with d equality rows and n box-bounded columns, whose equality
multipliers are theta. Two paths solve it:

1. A Frisch-Newton interior point (Portnoy & Koenker 1997; quantreg's
   `rq.fit.fnb`). At n in the thousands and d of a few, an iteration is
   about a hundred numpy calls of microseconds each, so it calls LAPACK's
   Cholesky routines directly and takes every step length in one closed
   form (`_frisch_newton`).
2. HiGHS dual simplex, when the interior point stops short or its vertex
   fails the certificate (`_highs_vertex`). Its optimal point can have
   fewer than d zero residuals on tied data, so it need not be a vertex.

Both paths hand their point to one vertex rule (`_vertex`): the first d
linearly independent rows in order of |residual|, on continuous data the
d smallest, are taken as the vertex, and theta is re-solved from them.
The exact Koenker-Bassett optimality condition (`kb_stationarity`) alone
then decides which vertex is returned, and the solution records the path
that gave it and that path's iteration count.

No tolerance has a unit floor, and the rank check scales Z's columns, so
y or a column of Z in other units rescales theta and changes nothing else.

The same inputs always give the same output. When the minimum is unique,
which is the generic case for continuous data, both paths reach the same
vertex, and theta does not depend on the order of the rows beyond
rounding. In a flat minimum, the optimal vertex returned depends on the
path and on its iterates or pivoting, so a row permutation can return a
different vertex with the same objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InputError, NumericalError

# ulp doublings _interpolate tries; 2**20 ulps stays below solve's zero_tol
INTERPOLATE_STEPS = 21

# Frisch-Newton interior point
FN_STEP = 0.99995     # fraction of the distance to the boundary each step takes
FN_GAP_TOL = 1e-10    # stopping duality gap, relative to sum_i w_i |y_i|
FN_MAX_ITER = 50      # past this, solve falls back to HiGHS

# at HiGHS's default (1e-7), dual simplex stopped at a non-optimal vertex
# of a simulated n = 1000 problem, a row of residual 4.9e-8 on the wrong
# bound
HIGHS_DUAL_FEASIBILITY_TOL = 1e-10


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
    """Design Z (first column constant; a 1-D Z is that column), outcome y,
    finite weights w >= 0, level tau.

    Rows with w_i = 0 are dropped before solving; their y and Z values may
    be NaN.
    """

    Z: np.ndarray
    y: np.ndarray
    w: np.ndarray
    tau: float

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        Z = Z[:, None] if Z.ndim == 1 else np.atleast_2d(Z)
        y = np.asarray(self.y, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        if not 0.0 < self.tau < 1.0:
            raise InputError("tau must lie strictly inside (0, 1)")
        if Z.shape[0] != len(y) or len(w) != len(y):
            raise InputError("Z, y, w must share the row count")
        if not (np.isfinite(w).all() and (w >= 0).all()):
            raise InputError("weights must be finite and nonnegative")
        keep = w > 0
        if keep.sum() < Z.shape[1]:
            raise InputError("fewer effectively weighted rows than coefficients")
        if not np.isfinite(y[keep]).all():
            raise InputError("non-finite outcome on a positively weighted row")
        if not np.isfinite(Z[keep]).all():
            raise InputError("non-finite design entry on a positively weighted row")


@dataclass(frozen=True)
class QuantileSolution:
    theta: np.ndarray
    objective: float
    active_set: tuple[int, ...]   # rows within zero_tol of the fit, d or more
    tau: float
    path: str                     # "interior_point" or "highs"
    iterations: int               # of the path that returned theta


def solve(problem: QuantileProblem) -> QuantileSolution:
    """Exact minimizer of the weighted check loss, from the dual LP.

    The Frisch-Newton interior point runs first (`_frisch_newton`). When it
    reaches FN_MAX_ITER, when a Cholesky factorization fails, or when its
    vertex fails the certificate, HiGHS dual simplex solves the same LP
    (`_highs_vertex`). Each path's point goes through the same vertex rule
    (`_vertex`), which re-solves theta from d linearly independent rows, so
    the vertex interpolates them to rounding with nonnegative residuals,
    and then through the Koenker-Bassett certificate (`kb_stationarity`),
    computed from the data and theta alone. The first certified vertex is
    returned; when neither path gives one, solve raises NumericalError.
    """
    keep = problem.w > 0
    Z, y, w = problem.Z[keep], problem.y[keep], problem.w[keep]
    scale = np.abs(Z).max(axis=0)
    if not scale.all() or np.linalg.matrix_rank(scaled := Z / scale) < Z.shape[1]:
        raise NumericalError("rank-deficient quantile design")
    tau = problem.tau
    zero_tol, slack = _tolerances(Z, y, w)
    for path, lp in (("interior_point", _frisch_newton), ("highs", _highs_vertex)):
        try:
            found = lp(Z, y, w, tau)
        except np.linalg.LinAlgError:
            continue
        if found is None:
            continue
        theta = _vertex(Z, scaled, y, found[0])
        resid = y - Z @ theta
        if kb_stationarity(Z, resid, w, tau, zero_tol) <= slack:
            break
    else:
        raise NumericalError("quantile solution violates the optimality certificate")
    zero = np.abs(resid) <= zero_tol
    objective = float(np.sum(w * check_loss(resid, tau)))
    orig = np.flatnonzero(keep)
    return QuantileSolution(theta=theta, objective=objective,
                            active_set=tuple(int(i) for i in orig[zero]), tau=tau,
                            path=path, iterations=found[1])


def _tolerances(Z, y, w):
    """solve's zero_tol, in the units of y, and slack, in those of w'|Z|."""
    return 1e-9 * np.abs(y).max(), 1e-6 * float(np.abs(w @ np.abs(Z)).max())


def _vertex(Z, scaled, y, theta):
    """The vertex solve takes from theta, a point of either path.

    Going through the rows in order of |y - Z theta|, the first d whose
    rows of the column-scaled design are linearly independent are re-solved
    in index order (`_interpolate`). On continuous data these are the d rows
    of smallest |residual|. On tied data, a row that depends linearly on
    rows already taken (the same row of Z, say) is skipped. solve's rank
    check of the same scaled design leaves d such rows in any units of Z.
    """
    rows = []
    for i in np.argsort(np.abs(y - Z @ theta), kind="stable"):
        if np.linalg.matrix_rank(scaled[rows + [i]]) > len(rows):
            rows.append(i)
            if len(rows) == Z.shape[1]:
                return _interpolate(Z, y, np.sort(rows))
    raise NumericalError("rank-deficient quantile design")


def _frisch_newton(Z, y, w, tau):
    """Mehrotra predictor-corrector on the dual LP (Portnoy & Koenker 1997).

    In x = a + (1-tau) w the LP reads min -y'x s.t. Z'x = (1-tau) Z'w,
    0 <= x <= w. The iterate starts at a = 0 with theta the least-squares
    fit, whose residuals r = y - Z theta give the dual slacks
    zl = max(-r, 0) of x >= 0 and zu = max(r, 0) of x <= w. Returns
    (theta, iterations) once the duality gap x'zl + (w-x)'zu is at most
    FN_GAP_TOL times sum_i w_i |y_i| (at once, with theta = 0, when y = 0),
    or None after FN_MAX_ITER iterations. Raises LinAlgError when Z'DZ has
    no Cholesky factor.

    Each iteration factors Z'DZ once with LAPACK's dpotrf and solves with
    dpotrs, the routines scipy.linalg.cho_factor and cho_solve wrap, so the
    factor is the same bit for bit without their per-call checks; the
    corrector reuses the factor. The reciprocals of x, s, zl and zu, with
    0 for a zero slack, are formed once per iteration, and both directions
    take their step lengths from them in one closed form (`_step_lengths`).
    """
    n = len(y)
    x, s = (1 - tau) * w, tau * w
    b = Z.T @ x
    theta = np.linalg.solve(Z.T @ Z, Z.T @ y)
    r = y - Z @ theta
    zl, zu = np.maximum(-r, 0.0), np.maximum(r, 0.0)
    # a zero residual leaves both slacks zero; lift both alike, which keeps
    # zl - zu = -r
    eps = 1e-6 * np.abs(y).max()
    near = np.abs(r) < eps
    zl[near] += eps
    zu[near] += eps
    gap_tol = FN_GAP_TOL * float(w @ np.abs(y))
    for iteration in range(FN_MAX_ITER):
        gap = x @ zl + s @ zu
        if gap <= gap_tol:
            return theta, iteration
        xi, si = 1.0 / x, 1.0 / s
        zli = np.divide(1.0, zl, out=np.zeros(n), where=zl > 0)
        zui = np.divide(1.0, zu, out=np.zeros(n), where=zu > 0)
        # affine-scaling predictor, in the dual step dv = -dtheta
        D = 1.0 / (zl * xi + zu * si)
        q = zl - zu
        rhs = b - Z.T @ x + Z.T @ (D * q)
        factor, info = dpotrf(Z.T @ (D[:, None] * Z), lower=0, clean=0)
        if info:
            raise np.linalg.LinAlgError("Z'DZ is not positive definite")
        dv = dpotrs(factor, rhs, lower=0)[0]
        dx = D * (Z @ dv - q)
        dzl = -zl * (1 + dx * xi)
        dzu = -zu * (1 - dx * si)
        ap, ad = _step_lengths(xi, si, zli, zui, dx, dzl, dzu)
        if min(ap, ad) < 1.0:
            # Mehrotra's centring and second-order corrector
            g = (x + ap * dx) @ (zl + ad * dzl) + (s - ap * dx) @ (zu + ad * dzu)
            mu = gap * (g / gap) ** 3 / (2 * n)
            dxdzl, dsdzu = dx * dzl, -dx * dzu
            dr = D * (mu * (si - xi) + dxdzl * xi - dsdzu * si)
            dv = dpotrs(factor, rhs + Z.T @ dr, lower=0)[0]
            dx = D * (Z @ dv - q) - dr
            dzl = (mu - zl * dx - dxdzl) * xi - zl
            dzu = (mu + zu * dx - dsdzu) * si - zu
            ap, ad = _step_lengths(xi, si, zli, zui, dx, dzl, dzu)
        x += ap * dx
        s -= ap * dx
        theta -= ad * dv
        zl += ad * dzl
        zu += ad * dzu
    return None


def _step_lengths(xi, si, zli, zui, dx, dzl, dzu):
    """Primal and dual step lengths: FN_STEP of the way to the boundary,
    at most 1, from the reciprocals xi, si, zli, zui of x, s, zl, zu.

    x moves by dx and s = w - x by -dx, so the ratios to the boundary,
    x / -dx and s / dx, are 1 / (-dx/x) and 1 / (dx/s): the rows with the
    largest -dx/x and dx/s block the primal step, and those with the
    largest -dzl/zl and -dzu/zu the dual one. With M the largest blocking
    value, FN_STEP / max(M, FN_STEP) is min(1, FN_STEP / M). A slack that
    is exactly zero, as on the first iterate, has zli or zui 0 and blocks
    nothing: no direction moves it down (the predictor by 0, the corrector
    up by mu/x or mu/s).
    """
    primal = max(-(dx * xi).min(), (dx * si).max(), FN_STEP)
    dual = max(-(dzl * zli).min(), -(dzu * zui).min(), FN_STEP)
    return FN_STEP / primal, FN_STEP / dual


def _highs_vertex(Z, y, w, tau):
    """HiGHS dual simplex on the dual LP: (theta, simplex iterations), theta
    its equality multipliers."""
    from scipy.optimize import linprog     # loaded only when a solve falls back
    # HiGHS's dual tolerance is absolute: pose the LP in y over a power of
    # two near max |y|, which scales it and the multipliers exactly
    unit = 2.0 ** np.frexp(np.abs(y).max())[1]
    # a = 0 is feasible and the box bounds the objective, so a nonzero
    # status can only be an iteration or time limit
    res = linprog(-y / unit, A_eq=Z.T, b_eq=np.zeros(Z.shape[1]),
                  bounds=np.column_stack([-(1 - tau) * w, tau * w]),
                  method="highs-ds",
                  options={"dual_feasibility_tolerance": HIGHS_DUAL_FEASIBILITY_TOL})
    if res.status != 0:
        raise NumericalError(f"quantile LP failed: {res.message}")
    return -res.eqlin.marginals * unit, int(res.nit)


def _interpolate(Z, y, rows):
    """Re-solve theta from the d rows of a vertex, Z[rows] nonsingular.

    Their residuals y - Z theta, computed over all rows as solve computes
    them, come out nonnegative, so quantile_score gives them tau, its value
    at zero, rather than the sign of rounding noise: when the exact solve
    leaves one negative, the targets are lowered by 1, 2, 4, ... ulps of
    max |y_rows| until none is.
    """
    Zh, yh = Z[rows], y[rows]
    shift, ulp = 0.0, np.spacing(np.abs(yh).max())
    for k in range(INTERPOLATE_STEPS):
        theta = np.linalg.solve(Zh, yh - shift)
        if ((y - Z @ theta)[rows] >= 0).all():
            break
        shift = ulp * 2.0 ** k
    return theta


def kb_stationarity(Z, resid, w, tau, zero_tol) -> float:
    """Distance of theta from the Koenker-Bassett optimality condition.

    theta minimizes sum_i w_i rho_tau(r_i) exactly when one score vector a,
    with a_i = tau w_i where r_i > 0, a_i = -(1-tau) w_i where r_i < 0 and
    a_i in [-(1-tau) w_i, tau w_i] on the zero residuals h, satisfies
    Z'a = 0 (Koenker 2005, Thm 2.1). With base the fixed part of Z'a, the
    zero rows must solve Z_h' a_h = -base inside their box. At a
    nondegenerate vertex (|h| = d, Z_h nonsingular) a_h is the unique
    solution of that d x d system, clipped to the box; otherwise it is the
    bounded least-squares solution. Returns max_k |(Z'a)_k|, which is zero,
    up to rounding, exactly when theta is optimal. Residuals within zero_tol
    count as zero, and a 1-D Z is one column.
    """
    Z = np.asarray(Z, dtype=float)
    Z = Z[:, None] if Z.ndim == 1 else np.atleast_2d(Z)
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
        from scipy.optimize import lsq_linear     # degenerate vertices only
        a_h = lsq_linear(Zh_t, -base, bounds=(lo, hi), method="bvls").x
    return float(np.abs(base + Zh_t @ a_h).max())

