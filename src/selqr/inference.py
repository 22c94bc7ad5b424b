"""Plug-in asymptotic covariance and confidence intervals.

The estimator's influence function has a quantile-score term and a
first-stage correction term. Its second moment, bracketed by the inverse
density-weighted design matrix, is estimated by sample analogs:

    M1 = E_n[ omega_i f_i Z_i Z_i' ]
    M0_i = Z_i omega_i psi_tau(u_i) + T' (H G^-1 H')^-1 H G^-1 b_i UJ_i
    Sigma = M1^-1 E_n[ M0_i M0_i' ] M1^-1

with f_i a kernel estimate of the conditional density of the outcome given
(omega, Z) at the fitted quantile, T = E_n[phi_i D_i Z_i' psi_tau(u_i)] and
UJ_i = 1 - D_i phi_i' beta_u the first-stage residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.stats import norm

from .data import ObservationSet
from .errors import InputError, NumericalError
from .first_stage import FirstStageFit
from .qr import QuantileSolution, quantile_score

log = logging.getLogger(__name__)

DENSITY_FLOOR = 1e-12
CONSTANT_DIM_TOL = 1e-8
PSD_CLIP_TOL = 1e-10
CV_BLOCK_ROWS = 64       # rows of the pairwise difference array per cv block
_SQRT_2PI = np.sqrt(2 * np.pi)


def default_bandwidths(V: np.ndarray) -> np.ndarray:
    """Rule-of-thumb bandwidths h_d = 1.06 sigma_d m^(-1/(4+d)) per column."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] < 2:
        raise InputError("need at least two rows for bandwidth selection")
    m, d_total = V.shape
    sd = V.std(axis=0, ddof=1)
    if (sd <= 0).any():
        raise InputError("degenerate dimension (constant column) in bandwidth data")
    return 1.06 * sd * m ** (-1.0 / (4 + d_total))


def _gauss(u: np.ndarray, h, out: np.ndarray) -> np.ndarray:
    """Scaled Gaussian kernel norm.pdf(u / h) / h, written into out (may be u).

    Evaluates scipy's own expression exp(-x**2/2.0) / sqrt(2*pi) one step
    at a time in place, so every value is bit-identical to
    scipy.stats.norm.pdf(u / h) / h: multiplying by -0.5 rounds the same
    real number as negating and halving.
    """
    np.divide(u, h, out=out)
    np.square(out, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out /= _SQRT_2PI
    out /= h
    return out


def cv_bandwidths(V: np.ndarray, multipliers=None, max_rows: int = 2000) -> np.ndarray:
    """Least-squares cross-validation refinement of the rule-of-thumb.

    Scales all rule-of-thumb bandwidths by a common factor chosen to
    minimize the LSCV criterion of the joint product-Gaussian density on a
    (deterministically subsampled) grid of rows.

    The sums over all m x m row pairs (m <= max_rows after subsampling) are
    streamed over blocks of CV_BLOCK_ROWS rows: working memory is
    (d + 2) * CV_BLOCK_ROWS * m floats (7 MB at m = 2000, d = 5), not
    O(m^2 d).
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    h0 = default_bandwidths(V)
    if multipliers is None:
        multipliers = np.linspace(0.3, 2.0, 12)
    if len(V) > max_rows:
        idx = np.unique(np.linspace(0, len(V) - 1, max_rows).round().astype(int))
        V = V[idx]
    m = len(V)
    n_mult = len(multipliers)
    k2_sum, k1_sum, k1_diag = np.zeros(n_mult), np.zeros(n_mult), np.zeros(n_mult)
    rows = min(CV_BLOCK_ROWS, m)
    diffs_buf = np.empty((V.shape[1], rows, m))     # one plane per column
    k_buf, work_buf = np.empty((rows, m)), np.empty((rows, m))
    for lo in range(0, m, CV_BLOCK_ROWS):
        block = V[lo:lo + CV_BLOCK_ROWS]
        diffs = diffs_buf[:, :len(block)]
        for d in range(V.shape[1]):
            np.subtract(block[:, d, None], V[None, :, d], out=diffs[d])
        k, work = k_buf[:len(block)], work_buf[:len(block)]
        for i, c in enumerate(multipliers):
            h = c * h0
            k2_sum[i] += _product_kernel(diffs, np.sqrt(2) * h, k, work).sum()
            k1 = _product_kernel(diffs, h, k, work)
            k1_sum[i] += k1.sum()
            k1_diag[i] += np.trace(k1, offset=lo)
    best, best_score = 1.0, np.inf
    for c, s2, s1, t1 in zip(multipliers, k2_sum, k1_sum, k1_diag):
        int_f2 = s2 / m**2
        loo = (s1 - t1) / (m * (m - 1))
        score = int_f2 - 2.0 * loo
        if score < best_score:
            best, best_score = c, score
    return best * h0


def _product_kernel(diffs: np.ndarray, h: np.ndarray, out: np.ndarray,
                    work: np.ndarray) -> np.ndarray:
    """prod_d K(diffs[d] / h[d]) / h[d] for the Gaussian K, written into out.

    The product runs over the planes in order, as np.prod over a last axis
    does; work is scratch of out's shape.
    """
    _gauss(diffs[0], h[0], out)
    for d in range(1, len(diffs)):
        out *= _gauss(diffs[d], h[d], work)
    return out


def conditional_density(y_obs, v_obs, y_eval, v_eval, bandwidths,
                        chunk: int = 512):
    """Nadaraya-Watson conditional density with product Gaussian kernels.

    f(y | v) = sum_j K_h0(y - y_j) prod_d K_hd(v_d - v_jd)
               / sum_j prod_d K_hd(v_d - v_jd)

    bandwidths[0] belongs to the outcome kernel, the rest to the columns of
    v. v may have zero columns (plain KDE). Returns (density values,
    boolean mask of evaluations whose denominator hit the 1e-12 floor).
    Evaluations run in chunks of `chunk` rows through two chunk x n_obs
    buffers.
    """
    y_obs = np.asarray(y_obs, dtype=float)
    y_eval = np.asarray(y_eval, dtype=float)
    v_obs = np.asarray(v_obs, dtype=float).reshape(len(y_obs), -1)
    v_eval = np.asarray(v_eval, dtype=float).reshape(len(y_eval), -1)
    bandwidths = np.asarray(bandwidths, dtype=float)
    if (bandwidths <= 0).any():
        raise InputError("bandwidths must be positive")
    if len(bandwidths) != 1 + v_obs.shape[1]:
        raise InputError("need one bandwidth for y plus one per conditioning column")

    out = np.empty(len(y_eval))
    floored = np.zeros(len(y_eval), dtype=bool)
    h0, hv = bandwidths[0], bandwidths[1:]
    rows = min(chunk, len(y_eval))
    kv_buf = np.empty((rows, len(y_obs)))
    work_buf = np.empty((rows, len(y_obs)))
    for lo in range(0, len(y_eval), chunk):
        sl = slice(lo, lo + chunk)
        kv = kv_buf[:len(y_eval[sl])]
        work = work_buf[:len(kv)]
        if v_obs.shape[1] == 0:
            kv.fill(1.0)
        for d in range(v_obs.shape[1]):
            # the first dimension's kernel is kv itself (1 * K == K exactly)
            k = work if d else kv
            np.subtract(v_eval[sl, d, None], v_obs[None, :, d], out=k)
            _gauss(k, hv[d], k)
            if d:
                kv *= k
        np.subtract(y_eval[sl, None], y_obs[None, :], out=work)
        _gauss(work, h0, work)
        den = kv.sum(axis=1)
        floored[sl] = den < DENSITY_FLOOR
        work *= kv
        out[sl] = work.sum(axis=1) / np.maximum(den, DENSITY_FLOOR)
    return out, floored


@dataclass(frozen=True)
class InfluenceComponents:
    M1_hat: np.ndarray
    T_hat: np.ndarray | None
    HGinvH: np.ndarray | None
    projector: np.ndarray | None
    Ujhat: np.ndarray | None
    psi_res: np.ndarray
    density: np.ndarray
    bandwidths: np.ndarray


@dataclass(frozen=True)
class CovarianceEstimate:
    """Asymptotic covariance of sqrt(n)(theta_hat - theta) plus intervals."""

    sigma: np.ndarray
    level: float
    ci: np.ndarray              # (d_z, 2)
    se: np.ndarray              # sqrt(diag(sigma) / n)
    n: int
    components: InfluenceComponents
    min_eigenvalue: float       # before PSD clipping
    density_floored: int


def confidence_intervals(theta, sigma, n: int, level: float) -> np.ndarray:
    """Normal-quantile intervals theta_k +/- z * sqrt(sigma_kk / n)."""
    if not 0.0 < level < 1.0:
        raise InputError("confidence level must lie in (0, 1)")
    theta = np.asarray(theta, dtype=float)
    z = norm.ppf(1.0 - (1.0 - level) / 2.0)
    half = z * np.sqrt(np.clip(np.diag(np.atleast_2d(sigma)), 0.0, None) / n)
    return np.column_stack([theta - half, theta + half])


def covariance(fit: FirstStageFit | None, qsol: QuantileSolution,
               data: ObservationSet, omega: np.ndarray,
               level: float = 0.95,
               bandwidth_mode: str = "rot") -> CovarianceEstimate:
    """Plug-in covariance for a weighted quantile fit.

    With fit=None the first-stage correction term is dropped and the
    estimate reduces to the weights-known sandwich; this is the mode used
    for comparator estimators whose weights are treated as fixed.
    """
    Z = data.design_z()
    n = data.n
    sel = data.selected
    theta = qsol.theta
    tau = qsol.tau
    omega = np.asarray(omega, dtype=float)

    # the rows the LP interpolates have residual zero, whatever sign their
    # rounding noise has, so their score is tau (quantile_score's convention)
    resid = np.where(sel, data.y_filled() - Z @ theta, 0.0)
    resid[list(qsol.active_set)] = 0.0
    psi = np.where(sel, quantile_score(resid, tau), 0.0)

    # conditional density of the outcome given (omega, Z) on selected rows;
    # near-constant conditioning dimensions carry no kernel information and
    # are dropped (the intercept column always is)
    cond = np.column_stack([omega, Z])[sel]
    keep_dims = cond.std(axis=0) > CONSTANT_DIM_TOL
    if not keep_dims.all():
        log.info("dropping %d near-constant conditioning dimension(s) from the "
                 "density estimate", int((~keep_dims).sum()))
    cond = cond[:, keep_dims]
    y_sel = data.y[sel]
    kernel_data = np.column_stack([y_sel, cond])
    if bandwidth_mode == "rot":
        bw = default_bandwidths(kernel_data)
    elif bandwidth_mode == "cv":
        bw = cv_bandwidths(kernel_data)
    else:
        raise InputError(f"unknown bandwidth mode {bandwidth_mode!r}")
    f_sel, floored = conditional_density(y_sel, cond, (Z @ theta)[sel], cond, bw)
    if floored.any():
        log.info("density denominator floored at %d evaluation point(s)",
                 int(floored.sum()))

    f_all = np.zeros(n)
    f_all[sel] = f_sel
    M1 = (Z * (omega * f_all)[:, None]).T @ Z / n
    try:
        M1_factor = scipy.linalg.cho_factor(M1)
    except np.linalg.LinAlgError:
        raise NumericalError("density-weighted design singular")

    M0 = Z * (omega * psi)[:, None]
    if fit is not None:
        T_hat = (fit.designs.phi * psi[:, None]).T @ Z / n
        Uj = 1.0 - fit.designs.phi @ fit.beta_u
        proj_rows = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(fit.HGinvH), fit.projector)
        P = T_hat.T @ proj_rows                       # d_z x K
        M0 = M0 + (fit.designs.b @ P.T) * Uj[:, None]
        comp_extra = dict(T_hat=T_hat, HGinvH=fit.HGinvH,
                          projector=fit.projector, Ujhat=Uj)
    else:
        comp_extra = dict(T_hat=None, HGinvH=None, projector=None, Ujhat=None)

    S = M0.T @ M0 / n
    M1inv_S = scipy.linalg.cho_solve(M1_factor, S)
    sigma = scipy.linalg.cho_solve(M1_factor, M1inv_S.T).T
    sigma = 0.5 * (sigma + sigma.T)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    min_eig = float(eigvals.min())
    if min_eig < 0.0:
        sigma = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
        sigma = 0.5 * (sigma + sigma.T)

    components = InfluenceComponents(M1_hat=M1, psi_res=psi, density=f_all,
                                     bandwidths=bw, **comp_extra)
    ci = confidence_intervals(theta, sigma, n, level)
    se = np.sqrt(np.clip(np.diag(sigma), 0.0, None) / n)
    return CovarianceEstimate(sigma=sigma, level=level, ci=ci, se=se, n=n,
                              components=components, min_eigenvalue=min_eig,
                              density_floored=int(floored.sum()))
