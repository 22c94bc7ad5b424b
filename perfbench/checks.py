"""Independent checks of selqr outputs.

Nothing here imports selqr. Every reference value is recomputed from the
benchmark's own copy of the inputs with numpy and the standard library, and
every check returns a list of failure messages (empty means it passed).
"""

from __future__ import annotations

import csv
import math
from statistics import NormalDist

import numpy as np

LEVEL = 0.95
Z_CRIT = NormalDist().inv_cdf(1.0 - (1.0 - LEVEL) / 2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
DENSITY_FLOOR = 1e-12

# selqr's documented LSCV multiplier grid for --bandwidth-mode cv
CV_GRID = np.linspace(0.3, 2.0, 12)

# The weights-known sandwich is recomputed with the same formulas but
# another summation order; beyond rounding, the only possible difference is
# the score of the d_z rows the LP interpolates, whose residual is zero up
# to rounding and may land on either side of zero. That moves each entry of
# E[psi^2 Z Z'] by at most d_z / n_selected (0.15 % at 2000 selected rows)
# and a standard error by half as much, so 1e-3 relative leaves room for it
# and nothing else.
SANDWICH_RTOL = 1e-3


def t3_cdf(t: float) -> float:
    """Closed-form CDF of Student's t with three degrees of freedom."""
    s = t / math.sqrt(3.0)
    return 0.5 + (s / (1.0 + s * s) + math.atan(s)) / math.pi


def t3_quantile(p: float) -> float:
    lo, hi = -1e3, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t3_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theta_true(tau: float) -> np.ndarray:
    """(intercept, x, w) of the tau-quantile line of setting C.

    The inputs are drawn with median-centred errors, y* = 1 + w + 2x + 0.7 t3,
    so the tau-quantile line shifts the intercept by 0.7 t3^-1(tau).
    """
    return np.array([1.0 + 0.7 * t3_quantile(tau), 2.0, 1.0])


def gaussian(u):
    return np.exp(-0.5 * u * u) / SQRT_2PI


# ---------------------------------------------------------------- fit reports

def check_estimate(est: dict, n: int) -> list[str]:
    """sigma symmetric PSD, se = sqrt(diag sigma / n), ci = theta -+ z se."""
    tag = f"{est['estimator']}@tau={est['tau']}"
    theta = np.asarray(est["theta"], dtype=float)
    sigma = np.asarray(est["sigma"], dtype=float)
    se = np.asarray(est["se"], dtype=float)
    ci = np.asarray(est["ci"], dtype=float)
    k = len(theta)
    if sigma.shape != (k, k) or se.shape != (k,) or ci.shape != (k, 2):
        return [f"{tag}: report shapes {sigma.shape} {se.shape} {ci.shape}"]
    if not all(np.isfinite(a).all() for a in (theta, sigma, se, ci)):
        return [f"{tag}: non-finite values in the report"]
    fails = []
    scale = max(np.abs(sigma).max(), 1e-300)
    if np.abs(sigma - sigma.T).max() > 1e-12 * scale:
        fails.append(f"{tag}: sigma is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    if eig.min() < -1e-10 * scale:
        fails.append(f"{tag}: sigma is not PSD (min eigenvalue {eig.min():.3e})")
    se_ref = np.sqrt(np.clip(np.diag(sigma), 0.0, None) / n)
    if not np.allclose(se, se_ref, rtol=1e-12, atol=0.0):
        fails.append(f"{tag}: se != sqrt(diag(sigma)/n)")
    half = Z_CRIT * se_ref
    tol = 1e-12 * (np.abs(theta) + half) + 1e-300
    if (np.abs(ci[:, 0] - (theta - half)) > tol).any() or \
            (np.abs(ci[:, 1] - (theta + half)) > tol).any():
        fails.append(f"{tag}: ci != theta -+ z*se")
    return fails


def check_subgradient(theta, Z, y, tau: float) -> list[str]:
    """Check-loss optimality: 0 lies in the subgradient at theta.

    Z and y hold the positively weighted rows only (unit weights).
    """
    theta = np.asarray(theta, dtype=float)
    r = y - Z @ theta
    zero = np.abs(r) <= 1e-9 * max(1.0, np.abs(y).max())
    score = np.where(r < 0.0, tau - 1.0, tau)
    base = (score * ~zero) @ Z
    Zz = Z[zero]
    lo = base + np.minimum((tau - 1.0) * Zz, tau * Zz).sum(axis=0)
    hi = base + np.maximum((tau - 1.0) * Zz, tau * Zz).sum(axis=0)
    slack = 1e-6 * max(1.0, float(np.abs(Z).sum(axis=0).max()))
    if (lo > slack).any() or (hi < -slack).any():
        return [f"uncorrected@tau={tau}: theta violates check-loss optimality "
                f"(subgradient range lo={lo}, hi={hi})"]
    return []


def rot_bandwidths(V: np.ndarray) -> np.ndarray:
    """1.06 sd m^(-1/(4+d)) per column, sd with the m-1 divisor."""
    m, d = V.shape
    sd = np.sqrt(((V - V.mean(axis=0)) ** 2).sum(axis=0) / (m - 1))
    return 1.06 * sd * m ** (-1.0 / (4 + d))


def nw_density(y_obs, v_obs, y_eval, v_eval, h, block: int = 256):
    """Product-Gaussian Nadaraya-Watson conditional density of y given v."""
    out = np.empty(len(y_eval))
    for lo in range(0, len(y_eval), block):
        sl = slice(lo, lo + block)
        kv = np.ones((len(y_eval[sl]), len(y_obs)))
        for j in range(v_obs.shape[1]):
            kv *= gaussian((v_eval[sl, j, None] - v_obs[None, :, j]) / h[j + 1]) / h[j + 1]
        ky = gaussian((y_eval[sl, None] - y_obs[None, :]) / h[0]) / h[0]
        out[sl] = (ky * kv).sum(axis=1) / np.maximum(kv.sum(axis=1), DENSITY_FLOOR)
    return out


def weights_known_se(theta, tau: float, sample) -> np.ndarray:
    """Standard errors of complete-case QR from the weights-known sandwich.

    M1 = E_n[f Z Z'], S = E_n[psi^2 Z Z'] over selected rows, with f the
    kernel density of y given (x, w) at the fitted quantile and rule-of-thumb
    bandwidths over (y, x, w).
    """
    theta = np.asarray(theta, dtype=float)
    sel = sample.d == 1
    n = len(sample.d)
    ys, xs, ws = sample.y[sel], sample.x[sel], sample.w[sel]
    Z = np.column_stack([np.ones(len(ys)), xs, ws])
    fitted = Z @ theta
    psi = np.where(ys - fitted < 0.0, tau - 1.0, tau)
    V = np.column_stack([ys, xs, ws])
    f = nw_density(ys, V[:, 1:], fitted, V[:, 1:], rot_bandwidths(V))
    M1 = (Z * f[:, None]).T @ Z / n
    S = (Z * (psi * psi)[:, None]).T @ Z / n
    M1inv = np.linalg.inv(M1)
    return np.sqrt(np.diag(M1inv @ S @ M1inv) / n)


def check_fit_report(report: dict, sample, taus, estimators,
                     truth_check: bool) -> list[str]:
    """Every check of one `selqr fit` JSON report against its input sample."""
    n = len(sample.d)
    got = [(e["tau"], e["estimator"]) for e in report.get("estimates", [])]
    want = [(t, name) for t in taus for name in estimators]
    if sorted(got) != sorted(want):
        return [f"report holds estimates {got}, expected {want}"]
    fails = []
    sel = sample.d == 1
    for est in report["estimates"]:
        if est["labels"] != ["intercept", "x0", "w0"]:
            fails.append(f"unexpected labels {est['labels']}")
            continue
        fails += check_estimate(est, n)
        tau, theta, se = est["tau"], np.asarray(est["theta"]), np.asarray(est["se"])
        if est["estimator"] == "uncorrected":
            Z = np.column_stack([np.ones(sel.sum()), sample.x[sel], sample.w[sel]])
            fails += check_subgradient(theta, Z, sample.y[sel], tau)
            se_ref = weights_known_se(theta, tau, sample)
            rel = np.abs(se / se_ref - 1.0).max()
            if not rel <= SANDWICH_RTOL:
                fails.append(f"uncorrected@tau={tau}: se {se} differs from the "
                             f"weights-known sandwich {se_ref} by {rel:.2e}")
        if truth_check and est["estimator"] == "semiparametric_iv":
            z = np.abs(theta - theta_true(tau)) / se
            if not (z <= 4.0).all():
                fails.append(f"semiparametric_iv@tau={tau}: theta {theta} is "
                             f"{z.max():.2f} se from the truth {theta_true(tau)}")
    return fails


# ------------------------------------------------------------ Monte Carlo

def check_mc_table(table, reps: int) -> list[str]:
    """Aggregates of a simlab MetricsTable, recomputed from its replications."""
    fails = []
    if table.excluded:
        fails.append(f"excluded replications {table.excluded}")
    truth = np.asarray(table.theta_true, dtype=float)
    # report order (intercept, w, x); setting C at tau = 0.5
    if not np.allclose(truth, [1.0 + 0.7 * t3_quantile(0.5), 1.0, 2.0],
                       rtol=0, atol=1e-12):
        fails.append(f"theta_true {truth} is not (1, 1, 2)")
    for name, rep in table.replications.items():
        theta, lo, hi = (np.asarray(rep[k], dtype=float)
                         for k in ("theta", "ci_lo", "ci_hi"))
        if theta.shape != (reps, len(truth)):
            fails.append(f"{name}: {theta.shape[0]} replications kept of {reps}")
            continue
        cols = range(len(truth))
        err = theta - truth
        ref = {
            "bias": [math.fsum(err[:, j]) / reps for j in cols],
            "rmse": [math.sqrt(math.fsum(err[:, j] ** 2) / reps) for j in cols],
            "ci_length": [math.fsum(hi[:, j] - lo[:, j]) / reps for j in cols],
            "coverage": [sum(bool(a <= truth[j] <= b)
                             for a, b in zip(lo[:, j], hi[:, j])) / reps
                         for j in cols],
        }
        for metric, want in ref.items():
            got = np.asarray(table.metrics[name][metric], dtype=float)
            if not np.allclose(got, want, rtol=1e-12, atol=1e-14):
                fails.append(f"{name}: {metric} {got} != recomputed {want}")
    return fails


def check_mc_bias_order(intercept_errors: dict) -> list[str]:
    """Under MNAR selection the correction must shrink the intercept bias."""
    sp = abs(float(np.mean(intercept_errors["semiparametric_iv"])))
    unc = abs(float(np.mean(intercept_errors["uncorrected"])))
    if not sp < unc:
        return [f"|intercept bias| of semiparametric_iv {sp:.4f} is not below "
                f"that of uncorrected {unc:.4f} over "
                f"{len(intercept_errors['uncorrected'])} replications"]
    return []


# ------------------------------------------------------------------- CDF

def read_cdf_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["y", "cdf_corrected", "cdf_empirical"]:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    table = np.array(rows[1:], dtype=float).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2]


def ks_distance(support, cdf_values, sample) -> float:
    """sup |F - G| between a step CDF on `support` and the ECDF of `sample`."""
    s = np.sort(sample)
    pts = np.union1d(support, s)
    padded = np.concatenate([[0.0], cdf_values])
    f = padded[np.searchsorted(support, pts, side="right")]
    g = np.searchsorted(s, pts, side="right") / len(s)
    return float(np.abs(f - g).max())


def check_cdf(y_grid, corrected, empirical, sample) -> list[str]:
    """`selqr cdf` output against the ECDFs of the selected and latent y."""
    y_sel = sample.y[sample.d == 1]
    support, counts = np.unique(y_sel, return_counts=True)
    if not np.array_equal(y_grid, support):
        return ["cdf grid is not the sorted distinct selected outcomes"]
    fails = []
    if not np.array_equal(empirical, np.cumsum(counts) / len(y_sel)):
        fails.append("cdf_empirical differs from the ECDF of the selected outcomes")
    if (np.diff(corrected) < 0).any():
        fails.append("cdf_corrected decreases")
    if corrected.min() < 0.0 or corrected[-1] != 1.0:
        fails.append(f"cdf_corrected spans [{corrected.min()}, {corrected[-1]}], "
                     "not ending at 1")
    ks_corr = ks_distance(support, corrected, sample.y_star)
    ks_naive = ks_distance(support, empirical, sample.y_star)
    if not ks_corr < ks_naive:
        fails.append(f"KS to the latent outcome: corrected {ks_corr:.4f} is not "
                     f"below naive {ks_naive:.4f}")
    return fails


# ------------------------------------------------------- LSCV bandwidths

def lscv_score(V: np.ndarray, h: np.ndarray, block: int = 200) -> float:
    """LSCV criterion of the product-Gaussian density, in row blocks.

    int f^2 - 2 mean leave-one-out f, with memory O(block * m * d).
    """
    m = len(V)
    h2 = math.sqrt(2.0) * h
    int_f2 = loo = 0.0
    for lo in range(0, m, block):
        diff = V[lo:lo + block, None, :] - V[None, :, :]
        int_f2 += float(np.prod(gaussian(diff / h2) / h2, axis=2).sum())
        loo += float(np.prod(gaussian(diff / h) / h, axis=2).sum())
    loo -= m * float(np.prod(1.0 / (SQRT_2PI * h)))
    return int_f2 / m**2 - 2.0 * loo / (m * (m - 1))


def check_cv_bandwidths(V, bw, sample) -> list[str]:
    """Bandwidths chosen by LSCV for the kernel data V = (y, omega, x, w).

    selqr runs LSCV on all rows up to 2000 selected ones; fit_cv has 1000.
    """
    V = np.asarray(V, dtype=float)
    bw = np.asarray(bw, dtype=float)
    sel = sample.d == 1
    if V.shape != (sel.sum(), 4):
        return [f"kernel data has shape {V.shape}, expected ({sel.sum()}, 4)"]
    fails = []
    if not (np.array_equal(V[:, 0], sample.y[sel]) and np.array_equal(V[:, 2], sample.x[sel])
            and np.array_equal(V[:, 3], sample.w[sel])):
        fails.append("kernel data columns are not (y, omega, x, w) of the selected rows")
    if not (V[:, 1] >= 1.0 - 1e-8).all():
        fails.append("kernel data weights fall below 1")
    h0 = rot_bandwidths(V)
    ratio = bw / h0
    k = int(np.argmin(np.abs(CV_GRID - ratio[0])))
    c = CV_GRID[k]
    if not np.allclose(ratio, c, rtol=1e-9, atol=0.0):
        return fails + [f"bandwidths / rule of thumb = {ratio}, not one point of "
                        f"the multiplier grid"]
    score = lscv_score(V, c * h0)
    for j in (k - 1, k + 1):
        if 0 <= j < len(CV_GRID):
            other = lscv_score(V, CV_GRID[j] * h0)
            if score > other + 1e-9 * abs(other):
                fails.append(f"LSCV score at c={c:.4f} ({score:.6e}) exceeds the "
                             f"score at c={CV_GRID[j]:.4f} ({other:.6e})")
    return fails
