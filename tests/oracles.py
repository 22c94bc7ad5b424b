"""Independent brute-force oracles the implementation is checked against.

Each routine recomputes an answer from first principles (exhaustive
enumeration, grid search, or another formulation of the same LP) and never
calls the code paths under test.
"""

import itertools

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import linprog
from scipy.stats import norm, t as student_t


def check_loss_direct(u, tau):
    u = np.asarray(u, dtype=float)
    return np.where(u >= 0, tau * u, (tau - 1.0) * u)


def brute_force_qr(Z, y, w, tau):
    """Global minimum of the weighted check loss by vertex enumeration.

    A minimizer interpolates some d observations (a vertex of the LP), so
    enumerating all nonsingular d-subsets and comparing objectives finds
    the exact optimum.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n, d = Z.shape
    best_obj, best_theta = np.inf, None
    for subset in itertools.combinations(range(n), d):
        Zs = Z[list(subset)]
        if abs(np.linalg.det(Zs)) < 1e-12:
            continue
        theta = np.linalg.solve(Zs, y[list(subset)])
        obj = float(np.sum(w * check_loss_direct(y - Z @ theta, tau)))
        if obj < best_obj:
            best_obj, best_theta = obj, theta
    return best_theta, best_obj


def lp_qr_objective(Z, y, w, tau):
    """Minimum of the weighted check loss from the primal LP,

    min_{theta, u+, u-}  sum_i w_i (tau u+_i + (1-tau) u-_i)
    s.t.  Z theta + u+ - u- = y,  u+, u- >= 0,

    solved by HiGHS with primal and dual feasibility tolerances of 1e-10
    (the primal form; selqr solves the dual).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n, d = Z.shape
    w = np.asarray(w, dtype=float)
    c = np.concatenate([np.zeros(d), tau * w, (1 - tau) * w])
    A = np.hstack([Z, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * d + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=np.asarray(y, dtype=float), bounds=bounds,
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun)


def enumerate_qp(Q, q, A, b):
    """Exact solution of min .5x'Qx - q'x s.t. Ax >= b by active-set
    enumeration: solve the equality-constrained problem for every subset of
    constraints, keep feasible KKT points, return the best."""
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    m, d = A.shape
    best_obj, best_x = np.inf, None
    for r in range(0, min(m, d) + 1):
        for subset in itertools.combinations(range(m), r):
            S = list(subset)
            # stationarity Qx - q - A_S' lam = 0 with lam >= 0 at a KKT point
            K = np.block([[Q, -A[S].T], [A[S], np.zeros((r, r))]]) if r else Q
            rhs = np.concatenate([q, b[S]]) if r else q
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:d], sol[d:]
            if (A @ x < b - 1e-9).any():
                continue
            if r and (lam < -1e-9).any():
                continue
            obj = 0.5 * x @ Q @ x - q @ x
            if obj < best_obj:
                best_obj, best_x = float(obj), x
    return best_x, best_obj


def probit_loglik(gamma, d, X):
    s = X @ gamma
    return float(np.where(d == 1, norm.logcdf(s), norm.logsf(s)).sum())


def probit_parts_reference(gamma, d, X):
    """Mean log-likelihood, gradient and Hessian of the probit, written on
    scipy.stats.norm's logpdf, logcdf and logsf."""
    s = X @ gamma
    r1 = np.exp(norm.logpdf(s) - norm.logcdf(s))
    r0 = np.exp(norm.logpdf(s) - norm.logsf(s))
    sel = d == 1
    ll = np.where(sel, norm.logcdf(s), norm.logsf(s)).mean()
    score = np.where(sel, r1, -r0)
    curv = np.where(sel, -s * r1 - r1**2, s * r0 - r0**2)
    grad = X.T @ score / len(d)
    hess = (X * curv[:, None]).T @ X / len(d)
    return ll, grad, hess, s


def errors_reference(setting, tau, x, rng):
    """simlab's recentred error draws, with quantiles from scipy.stats."""
    n = len(x)
    if setting == "A":
        return rng.standard_normal(n) - norm.ppf(tau)
    if setting == "B":
        wide = rng.random(n) < 0.4
        eps = rng.standard_normal(n) * np.where(wide, 1.5, 1.0)
        return eps - mixture_quantile_reference(tau)
    if setting == "C":
        return 0.7 * rng.standard_t(3, n) - 0.7 * student_t.ppf(tau, 3)
    if setting == "D":
        return rng.uniform(-1.5, 1.5, n) - (-1.5 + 3.0 * tau)
    sd = 0.5 * (1.0 + np.abs(x))
    return sd * rng.standard_normal(n) - sd * norm.ppf(tau)


def mixture_quantile_reference(tau):
    """tau-quantile of 0.4 N(0, 1.5^2) + 0.6 N(0, 1) by bisection on
    scipy.stats.norm.cdf, to 1e-10."""
    lo, hi = -20.0, 20.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if 0.4 * norm.cdf(mid / 1.5) + 0.6 * norm.cdf(mid) < tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def design_matrix_reference(kv, x):
    """Clamped B-spline basis of a KnotVector from scipy's own evaluator."""
    pts = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), kv.lo, kv.hi)
    return BSpline.design_matrix(pts, kv.full_knots(), kv.degree).toarray()


def probit_grid_max(d, X, lo=-5.0, hi=5.0):
    """Best log-likelihood found by nested grid refinement down to below
    0.001 resolution, centered on the best point of each coarser pass."""
    p = X.shape[1]
    center = np.zeros(p)
    half = (hi - lo) / 2
    best = -np.inf
    step = half / 10
    while step > 0.0004:
        axes = [center[j] + np.linspace(-10 * step, 10 * step, 21)
                for j in range(p)]
        grids = np.meshgrid(*axes, indexing="ij")
        points = np.column_stack([g.ravel() for g in grids])
        s = points @ X.T
        ll = np.where(d == 1, norm.logcdf(s), norm.logsf(s)).sum(axis=1)
        k = int(np.argmax(ll))
        best = float(ll[k])
        center = points[k]
        step /= 10
    return best, center


def conditional_density_reference(y_obs, v_obs, y_eval, v_eval, bandwidths,
                                  chunk: int = 512):
    """Nadaraya-Watson conditional density built on scipy's norm.pdf, one
    full temporary per kernel dimension; selqr's density, which applies the
    kernel constants to row sums, must match it to rounding."""
    y_obs = np.asarray(y_obs, dtype=float)
    y_eval = np.asarray(y_eval, dtype=float)
    v_obs = np.asarray(v_obs, dtype=float).reshape(len(y_obs), -1)
    v_eval = np.asarray(v_eval, dtype=float).reshape(len(y_eval), -1)
    bandwidths = np.asarray(bandwidths, dtype=float)
    out = np.empty(len(y_eval))
    floored = np.zeros(len(y_eval), dtype=bool)
    h0, hv = bandwidths[0], bandwidths[1:]
    for lo in range(0, len(y_eval), chunk):
        sl = slice(lo, lo + chunk)
        kv = np.ones((len(y_eval[sl]), len(y_obs)))
        for d in range(v_obs.shape[1]):
            u = (v_eval[sl, d, None] - v_obs[None, :, d]) / hv[d]
            kv *= norm.pdf(u) / hv[d]
        ky = norm.pdf((y_eval[sl, None] - y_obs[None, :]) / h0) / h0
        den = kv.sum(axis=1)
        floored[sl] = den < 1e-12
        out[sl] = (ky * kv).sum(axis=1) / np.maximum(den, 1e-12)
    return out, floored


def cv_bandwidths_reference(V, multipliers=None, max_rows: int = 2000):
    """LSCV bandwidth choice over the full m x m x d difference array with
    scipy's norm.pdf kernels."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    m_all, d_total = V.shape
    h0 = 1.06 * V.std(axis=0, ddof=1) * m_all ** (-1.0 / (4 + d_total))
    if multipliers is None:
        multipliers = np.linspace(0.3, 2.0, 12)
    if len(V) > max_rows:
        idx = np.unique(np.linspace(0, len(V) - 1, max_rows).round().astype(int))
        V = V[idx]
    m = len(V)
    diffs = V[:, None, :] - V[None, :, :]
    best, best_score = 1.0, np.inf
    for c in multipliers:
        h = c * h0
        k2 = np.prod(norm.pdf(diffs / (np.sqrt(2) * h)) / (np.sqrt(2) * h), axis=2)
        k1 = np.prod(norm.pdf(diffs / h) / h, axis=2)
        int_f2 = k2.sum() / m**2
        loo = (k1.sum() - np.trace(k1)) / (m * (m - 1))
        score = int_f2 - 2.0 * loo
        if score < best_score:
            best, best_score = c, score
    return best * h0


def ingest_csv_reference(path, colmap):
    """Row-at-a-time CSV reader: one csv.DictReader dict and one float()
    call per cell. Same results and error messages as data.ingest_csv on
    every file whose rows reach every mapped column.
    """
    import csv

    from selqr import InputError, ObservationSet

    def parse(raw, col, line):
        try:
            return float(raw)
        except ValueError:
            raise InputError(f"column '{col}' not parseable as a number at line {line}") from None

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty file, header row required")
        needed = {colmap.d_column, colmap.y_column, *colmap.w_columns, *colmap.x_columns}
        missing = needed - set(reader.fieldnames)
        if missing:
            raise InputError(f"{path}: missing column(s) {sorted(missing)}")
        d, y, w, x = [], [], [], []
        for row in reader:
            line = reader.line_num
            draw = (row[colmap.d_column] or "").strip()
            if draw not in ("0", "1"):
                raise InputError(f"non-binary selection indicator {draw!r} at line {line}")
            di = int(draw)
            yraw = (row[colmap.y_column] or "").strip()
            if di == 1 and yraw == "":
                raise InputError(f"observed row missing outcome at line {line}")
            d.append(di)
            y.append(parse(yraw, colmap.y_column, line) if yraw else np.nan)
            w.append([parse(row[c], c, line) for c in colmap.w_columns])
            x.append([parse(row[c], c, line) for c in colmap.x_columns])
    if not d:
        raise InputError(f"{path}: no data rows")
    return ObservationSet(
        d=np.array(d), y=np.array(y), w=np.array(w),
        x=np.array(x, dtype=float).reshape(len(d), -1),
    )
