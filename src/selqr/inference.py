"""Plug-in asymptotic covariance and confidence intervals.

The estimator's influence function has a quantile-score term and a
first-stage correction term. Its second moment, bracketed by the inverse
density-weighted design matrix, is estimated by sample analogs:

    M1 = E_n[ omega_i f_i Z_i Z_i' ]
    M0_i = Z_i omega_i psi_tau(u_i) + C_i
    Sigma = M1^-1 E_n[ M0_i M0_i' ] M1^-1 = E_n[ B_i B_i' ],  B_i = M1^-1 M0_i

with f_i a kernel estimate of the conditional density of the outcome given
(omega, Z) at the fitted quantile and C_i = T' IF_i the two-step term of
estimated weights, `WeightVector.correction`, zero for known weights.
`_density` estimates f, and `_sandwich` forms Sigma as the Gram matrix of
the B_i, symmetric and positive semidefinite by construction.

The density and the LSCV bandwidth search write each product Gaussian
kernel as a constant times exp(-S), S a squared distance between bandwidth-
scaled rows formed by one block kernel, `_sq_dist_blocks`. The constants
multiply row sums, so a row pair costs one exponential per kernel.

Each pairwise difference col_i - row_j of a block is formed by copying
the row into every line of the buffer and then subtracting it in place
from the broadcast column. A subtract that broadcasts both operands
(col[:, None] - row[None, :]) pays numpy a fixed cost of about a
microsecond per line, more than the arithmetic of a 1000-wide line; the
copy and the in-place subtract stream whole lines. The subtraction, and
so every value, is the same.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.linalg
from scipy.special import ndtri

from .data import ObservationSet
from .errors import InputError, NumericalError
from .first_stage import WeightVector
from .qr import QuantileSolution, quantile_score

BANDWIDTH_MODES = ("rot", "cv")   # rule of thumb, or its LSCV refinement
BLOCK_ROWS = 64          # rows per kernel block: two 64 x 1000 blocks are 1 MB
CV_MULTIPLIERS = np.linspace(0.3, 2.0, 12)   # LSCV grid of rule-of-thumb scales
CV_MAX_ROWS = 2000       # LSCV subsamples larger kernel data to this many rows


def default_bandwidths(V: np.ndarray) -> np.ndarray:
    """Rule-of-thumb bandwidths h_d = 1.06 sigma_d m^(-1/(4+d)) per column;
    a 1-D V is one column."""
    V = np.asarray(V, dtype=float)
    V = V[:, None] if V.ndim == 1 else np.atleast_2d(V)
    if V.shape[0] < 2:
        raise InputError("need at least two rows for bandwidth selection")
    m, d_total = V.shape
    sd = V.std(axis=0, ddof=1)
    if (sd <= 0).any():
        raise InputError("degenerate dimension (constant column) in bandwidth data")
    return 1.06 * sd * m ** (-1.0 / (4 + d_total))


def _sq_dist_blocks(a: np.ndarray):
    """Yield (rows, S, work) for each block of BLOCK_ROWS rows of a (m x D):
    S_ij = sum_d (a_id - a_jd)^2 for the block's rows i and every row j of
    a, and a scratch array of S's shape. S and work are views of two
    BLOCK_ROWS x m buffers that the next block overwrites."""
    a_cols = np.asfortranarray(a)     # each column of a is read contiguously
    s_buf, work_buf = np.empty((2, min(BLOCK_ROWS, len(a)), len(a)))
    for lo in range(0, len(a), BLOCK_ROWS):
        block = a[lo:lo + BLOCK_ROWS]
        s, work = s_buf[:len(block)], work_buf[:len(block)]
        if a.shape[1] == 0:
            s.fill(0.0)
        for d in range(a.shape[1]):
            diff = work if d else s
            diff[...] = a_cols[:, d]
            np.subtract(block[:, d, None], diff, out=diff)
            np.square(diff, out=diff)
            if d:
                s += diff
        yield slice(lo, lo + len(block)), s, work


def cv_bandwidths(V: np.ndarray) -> np.ndarray:
    """Least-squares cross-validation refinement of the rule-of-thumb.

    Scales all rule-of-thumb bandwidths h0 by the factor c in CV_MULTIPLIERS
    that minimizes the LSCV criterion of the joint product-Gaussian density
    on at most CV_MAX_ROWS rows, an evenly spaced subsample of V if longer.

    With u = v / h0 and S_ij = sum_d (u_id - u_jd)^2, the product kernels at
    bandwidths c h0 and sqrt(2) c h0 are k1_ij = a1 exp(-S_ij / (2 c^2))
    and k2_ij = a2 exp(-S_ij / (4 c^2)), with a1 = (2 pi)^(-D/2) /
    (c^D prod h0) and a2 = a1 / 2^(D/2). So each pair and multiplier costs
    one exponential: e = exp(-S / (4 c^2)) gives the k2 sum as a2 sum(e)
    and the k1 sum as a1 sum(e^2), and the leave-one-out diagonal of k1 is
    m a1. The constants are applied to the sums, not to each pair.

    The sums over all m x m row pairs are streamed over blocks of
    BLOCK_ROWS rows: working memory is 2 * BLOCK_ROWS * m floats (2 MB at
    m = 2000), not O(m^2 d). A 1-D V is one column.
    """
    V = np.asarray(V, dtype=float)
    V = V[:, None] if V.ndim == 1 else np.atleast_2d(V)
    h0 = default_bandwidths(V)
    if len(V) > CV_MAX_ROWS:
        idx = np.unique(np.linspace(0, len(V) - 1, CV_MAX_ROWS).round().astype(int))
        V = V[idx]
    U = V / h0
    m, n_dims = U.shape
    sum_e, sum_e_sq = np.zeros((2, len(CV_MULTIPLIERS)))
    for _, s, e in _sq_dist_blocks(U):
        for i, c in enumerate(CV_MULTIPLIERS):
            np.multiply(s, -0.25 / c**2, out=e)
            np.exp(e, out=e)
            sum_e[i] += e.sum()
            np.square(e, out=e)
            sum_e_sq[i] += e.sum()
    best, best_score = 1.0, np.inf
    for c, e_total, e_sq_total in zip(CV_MULTIPLIERS, sum_e, sum_e_sq):
        a1 = (2 * np.pi) ** (-n_dims / 2) / (c**n_dims * np.prod(h0))
        int_f2 = a1 / 2 ** (n_dims / 2) * e_total / m**2
        loo = a1 * (e_sq_total - m) / (m * (m - 1))
        score = int_f2 - 2.0 * loo
        if score < best_score:
            best, best_score = c, score
    return best * h0


def conditional_density(y, v, levels, bandwidths):
    """Nadaraya-Watson conditional density with product Gaussian kernels,
    evaluated at the sample's own rows:

    f_li = sum_j K_h0(levels_li - y_j) prod_d K_hd(v_id - v_jd)
           / sum_j prod_d K_hd(v_id - v_jd)

    bandwidths[0] belongs to the outcome kernel, the rest to the columns of
    v (n x D, D may be 0: plain KDE; a vector is one column). levels has
    shape (k, n): k outcome values per row, each evaluated at that row's v.
    Returns an array of levels' shape.

    With t = y / (sqrt(2) h0) and u = v / (sqrt(2) h), the conditioning
    kernel of a row pair is prod(h)^-1 (2 pi)^(-D/2) exp(-S_ij), S_ij =
    sum_d (u_id - u_jd)^2, and its constant cancels in the ratio. The
    outcome kernel is c_y exp(-(t_l - t_j)^2) per level, c_y = 1 /
    (sqrt(2 pi) h0) applied to the row sum: a pair costs 1 + k
    exponentials. Row i's denominator holds its own term exp(-S_ii) = 1,
    so it is at least one and needs no floor, in any units of v. Values
    match products of scipy.stats.norm.pdf kernels to about 1e-13
    relative, with the same exact zeros, not bit for bit.

    Rows run in blocks of BLOCK_ROWS through two BLOCK_ROWS x n buffers,
    whatever k is. Each block builds the conditioning kernel once, then
    the outcome kernel of each level, so every value equals that of a
    one-level call at any BLOCK_ROWS.
    """
    y = np.asarray(y, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 2 or levels.shape[1] != len(y):
        raise InputError(f"levels must have shape (k, {len(y)})")
    v = np.asarray(v, dtype=float)
    v = v[:, None] if v.ndim == 1 else v
    if v.ndim != 2 or len(v) != len(y):
        raise InputError(f"v must have shape ({len(y)},) or ({len(y)}, D)")
    bandwidths = np.asarray(bandwidths, dtype=float)
    if len(bandwidths) != 1 + v.shape[1] or (bandwidths <= 0).any():
        raise InputError("need one positive bandwidth for y and per column of v")

    out = np.empty(levels.shape)
    h0, hv = bandwidths[0], bandwidths[1:]
    c_y = 1.0 / (np.sqrt(2 * np.pi) * h0)
    t, t_levels = y / (np.sqrt(2) * h0), levels / (np.sqrt(2) * h0)
    for sl, kv, work in _sq_dist_blocks(v / (np.sqrt(2) * hv)):
        np.negative(kv, out=kv)
        np.exp(kv, out=kv)
        den = kv.sum(axis=1)
        for t_level, out_level in zip(t_levels, out):
            work[...] = t
            np.subtract(t_level[sl, None], work, out=work)
            np.square(work, out=work)
            np.negative(work, out=work)
            np.exp(work, out=work)
            out_level[sl] = c_y * np.einsum("ij,ij->i", work, kv) / den
    return out


def confidence_intervals(theta, sigma, n: int, level: float) -> np.ndarray:
    """Normal-quantile intervals theta_k +/- z * sqrt(sigma_kk / n) at any
    level (estimator.CI_LEVEL in every fit); InputError unless sigma is
    k x k for k coefficients, or if a sigma_kk < 0."""
    if not 0.0 < level < 1.0:
        raise InputError("confidence level must lie in (0, 1)")
    theta, sigma = np.asarray(theta, dtype=float), np.asarray(sigma, dtype=float)
    if sigma.shape != (len(theta), len(theta)):
        raise InputError(f"sigma must have shape ({len(theta)}, {len(theta)})")
    variances = np.diag(sigma)
    if (variances < 0).any():
        raise InputError("sigma has a negative variance")
    z = ndtri(1.0 - (1.0 - level) / 2.0)
    half = z * np.sqrt(variances / n)
    return np.column_stack([theta - half, theta + half])


def _density(data: ObservationSet, omega: np.ndarray, Z: np.ndarray,
             levels: np.ndarray, bandwidth_mode: str) -> tuple[np.ndarray, int]:
    """The outcome's density at each row of levels (k x n_selected) on the
    selected rows, given (omega, Z) less its columns constant there
    (the intercept always is), and the count of those columns."""
    if bandwidth_mode not in BANDWIDTH_MODES:
        raise InputError(f"unknown bandwidth mode {bandwidth_mode!r}")
    sel = data.selected
    cond = np.column_stack([omega, Z])[sel]
    keep_dims = ~(cond == cond[0]).all(axis=0)
    y_sel, cond = data.y[sel], cond[:, keep_dims]
    select = cv_bandwidths if bandwidth_mode == "cv" else default_bandwidths
    bw = select(np.column_stack([y_sel, cond]))
    return conditional_density(y_sel, cond, levels, bw), int((~keep_dims).sum())


def _sandwich(Z: np.ndarray, m1: np.ndarray, M0: np.ndarray) -> np.ndarray:
    """B'B / n with B = M0 M1^-1 and M1 = E_n[m1_i Z_i Z_i']. M0 has all n
    rows; Z and m1 only those where m1 may be nonzero. NumericalError if M1
    has no Cholesky factor."""
    M1 = (Z * m1[:, None]).T @ Z / len(M0)
    try:
        M1_factor = scipy.linalg.cho_factor(M1)
    except np.linalg.LinAlgError:
        raise NumericalError("density-weighted design singular")
    B = M0 @ scipy.linalg.cho_solve(M1_factor, np.eye(len(M1)))
    return B.T @ B / len(M0)


def covariance(qsols: Sequence[QuantileSolution], data: ObservationSet,
               weights: WeightVector, bandwidth_mode: str = "rot"
               ) -> list[tuple[np.ndarray, dict]]:
    """Plug-in covariance for weighted quantile fits at one level or several.

    qsols are solutions fitted with the same weights. Each level gives
    (sigma, diagnostics), in order: sigma, a Gram matrix, estimates the
    covariance of sqrt(n)(theta_hat - theta); the diagnostics are its
    minimum eigenvalue and the count of dropped constant columns of
    (omega, Z). `_density` runs once for all levels at bandwidth_mode, one
    of BANDWIDTH_MODES; the scores and `_sandwich` run per level.
    """
    if not qsols:
        raise InputError("need at least one quantile level")
    Z, sel, omega = data.design_z(), data.selected, weights.omega
    fitted = np.array([Z @ q.theta for q in qsols])
    f_sel, dropped = _density(data, omega, Z, fitted[:, sel], bandwidth_mode)

    estimates = []
    for q, fitted_q, f_q in zip(qsols, fitted, f_sel):
        # the rows the LP interpolates have residual zero, whatever sign their
        # rounding noise has, so their score is tau (quantile_score's convention)
        resid = np.where(sel, data.y - fitted_q, 0.0)
        resid[list(q.active_set)] = 0.0
        psi = np.where(sel, quantile_score(resid, q.tau), 0.0)
        M0 = Z * (omega * psi)[:, None] + weights.correction(psi, Z)
        sigma = _sandwich(Z[sel], omega[sel] * f_q, M0)
        estimates.append((sigma, {
            "min_eigenvalue": float(np.linalg.eigvalsh(sigma)[0]),
            "conditioning_dims_dropped": dropped}))
    return estimates
