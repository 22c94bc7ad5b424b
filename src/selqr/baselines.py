"""Probit selection model and the MAR inverse-probability weights it gives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .data import ObservationSet
from .errors import InputError, NumericalError

PROBIT_DECREMENT_TOL = 1e-16    # on g'(-H)^-1 g, per observation
PROBIT_MAX_ITER = 200
SEPARATION_BOUND = 30.0
TRIM_FLOOR = 0.01    # MAR probabilities are clamped below here before inverting
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))   # scipy.stats' _norm_pdf_logC


@dataclass(frozen=True)
class ProbitFit:
    """MLE of P(D=1 | X) = Phi(X' gamma)."""

    gamma: np.ndarray
    iterations: int

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        return ndtr(np.atleast_2d(X) @ self.gamma)


def _probit_parts(gamma, d, X):
    """Mean log-likelihood, gradient and Hessian (all per observation)."""
    s = X @ gamma
    # phi/Phi and phi/(1-Phi) via log-space for tail stability; the same
    # kernels as scipy.stats.norm's logpdf, logcdf and logsf
    logpdf = -s**2 / 2.0 - _LOG_SQRT_2PI
    logcdf, logsf = log_ndtr(s), log_ndtr(-s)
    r1 = np.exp(logpdf - logcdf)
    r0 = np.exp(logpdf - logsf)
    sel = d == 1
    ll = np.where(sel, logcdf, logsf).mean()
    score = np.where(sel, r1, -r0)
    curv = np.where(sel, -s * r1 - r1**2, s * r0 - r0**2)
    grad = X.T @ score / len(d)
    hess = (X * curv[:, None]).T @ X / len(d)
    return ll, grad, hess, s


def probit_fit(d: np.ndarray, X: np.ndarray) -> ProbitFit:
    """Newton-Raphson with step halving; converges on the Newton decrement.

    X must already carry its intercept column. The decrement g'(-H)^-1 g,
    which no column's units move, is checked before each of at most
    PROBIT_MAX_ITER Newton steps and after the last one, so a returned fit
    has converged (below PROBIT_DECREMENT_TOL). Raises NumericalError on
    detected separation (diverging linear predictor) and when no check passes.
    A 1-D X is one column.
    """
    d = np.asarray(d, dtype=float)
    X = np.asarray(X, dtype=float)
    X = X[:, None] if X.ndim == 1 else np.atleast_2d(X)
    if set(np.unique(d)) - {0.0, 1.0}:
        raise InputError("probit response must be binary")
    if len(np.unique(d)) < 2:
        raise InputError("probit response is constant")
    gamma = np.zeros(X.shape[1])
    ll, grad, hess, s = _probit_parts(gamma, d, X)
    for it in range(PROBIT_MAX_ITER + 1):
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            raise NumericalError("probit Hessian singular")
        if (decrement := grad @ step) < PROBIT_DECREMENT_TOL:
            return ProbitFit(gamma=gamma, iterations=it)
        if it == PROBIT_MAX_ITER:
            break
        scale = 1.0
        for _ in range(50):
            cand = gamma + scale * step
            ll_new, grad_new, hess_new, s_new = _probit_parts(cand, d, X)
            if ll_new > ll - 1e-14:
                break
            scale *= 0.5
        else:
            raise NumericalError(f"probit step halving stalled at iterate {gamma}")
        gamma, ll, grad, hess, s = cand, ll_new, grad_new, hess_new, s_new
        if np.abs(s).max() > SEPARATION_BOUND:
            raise NumericalError("probit separation detected (monotone likelihood)")
    raise NumericalError(
        f"probit did not converge in {PROBIT_MAX_ITER} iterations; last iterate "
        f"{gamma}, Newton decrement {decrement:.3e}")


def mar_weights(data: ObservationSet):
    """Inverse probit probabilities under selection-on-observables.

    Fitted probabilities are clamped below at TRIM_FLOOR. A fully observed
    sample gets unit weights and no probit, so the fit is None.
    """
    if data.d.all():
        return np.ones(data.n), None
    Xd = np.column_stack([np.ones(data.n), data.x])
    pf = probit_fit(data.d, Xd)
    p = np.maximum(pf.probabilities(Xd), TRIM_FLOOR)
    return data.d / p, pf

