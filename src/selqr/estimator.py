"""One estimation driver shared by the CLI and the simulation lab.

Every estimator is a weighted quantile regression plus plug-in inference,
run by `_weighted_fit`. Three weight providers differ only in where the
weights come from: `fit_semiparametric_iv` (first stage, inverse selection
probabilities floored at one, first-stage-corrected covariance),
`fit_uncorrected` (the selection dummies) and `fit_mar` (inverse probit
probabilities, treated as known). `fit` dispatches on the name.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import baselines, first_stage, inference
from .basis import BasisPlan
from .data import ObservationSet
from .errors import InputError
from .qr import QuantileProblem, QuantileSolution, solve

ESTIMATOR_NAMES = ("uncorrected", "mar", "semiparametric_iv")
CI_LEVEL = 0.95     # the level of every QuantileFit.ci


def check_names(names: Sequence[str]) -> None:
    """InputError unless names are distinct members of ESTIMATOR_NAMES."""
    unknown = set(names) - set(ESTIMATOR_NAMES)
    if unknown:
        raise InputError(f"unknown estimator(s) {sorted(unknown)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise InputError(f"repeated estimator(s) {repeated}")


def check_columns(data: ObservationSet) -> None:
    """InputError naming the first constant column of x or w, which no
    estimator can tell apart from the intercept; every provider calls this
    before it builds weights, and `selqr fit` and `cdf` before knots."""
    for prefix, columns in (("x", data.x), ("w", data.w)):
        constant = np.flatnonzero((columns == columns[0]).all(axis=0))
        if constant.size:
            raise InputError(f"column {prefix}{constant[0]} is constant")


@dataclass(frozen=True)
class QuantileFit:
    """One estimator's output at one quantile level."""

    tau: float
    estimator: str
    theta: np.ndarray
    sigma: np.ndarray
    se: np.ndarray
    ci: np.ndarray              # (d_z, 2), at CI_LEVEL
    labels: tuple[str, ...]
    diagnostics: dict = field(default_factory=dict)
    qsol: QuantileSolution | None = None


def _weighted_fit(data: ObservationSet, tau: float | Sequence[float], name: str,
                  weights: first_stage.WeightVector, bandwidth_mode: str,
                  diagnostics: dict) -> QuantileFit | list[QuantileFit]:
    """Weighted QR and plug-in covariance for the given weights.

    tau is a float, which gives one QuantileFit, or a sequence of floats,
    which gives a list of fits in the same order (np.quantile's
    convention). Only the LP and the sandwich run per level: one
    `inference.covariance` call shares the bandwidths and the conditioning
    kernel across all of them, and the weights supply its first-stage term.
    Each fit's diagnostics gain the covariance's and its LP's path and
    iteration count.
    """
    scalar = np.ndim(tau) == 0
    taus = [tau] if scalar else list(tau)
    Z, y = data.design_z(), data.y_filled(np.nan)
    qsols = [solve(QuantileProblem(Z=Z, y=y, w=weights.omega, tau=t)) for t in taus]
    covs = inference.covariance(qsols, data, weights, bandwidth_mode)
    labels = tuple(data.z_labels())
    fits = [QuantileFit(tau=t, estimator=name, theta=qsol.theta, sigma=sigma,
                        se=np.sqrt(np.diag(sigma) / data.n),
                        ci=inference.confidence_intervals(qsol.theta, sigma,
                                                          data.n, CI_LEVEL),
                        labels=labels, qsol=qsol,
                        diagnostics={"n_selected": data.n_selected, **diagnostics,
                                     **cov_diagnostics, "lp_path": qsol.path,
                                     "lp_iterations": qsol.iterations})
            for t, qsol, (sigma, cov_diagnostics) in zip(taus, qsols, covs)]
    return fits[0] if scalar else fits


def fit_semiparametric_iv(data: ObservationSet, tau: float | Sequence[float],
                          plan: BasisPlan | None = None, bandwidth_mode: str = "rot"
                          ) -> QuantileFit | list[QuantileFit]:
    """Inverse-selection-probability weighted QR with first-stage-aware
    covariance: series 2SLS, weights max(g_u, 1), weighted QR, plug-in
    inference. The weights are built once for every level in tau."""
    check_columns(data)
    fs = first_stage.estimate_unconstrained(data, plan)
    wv = first_stage.weights(fs, data)
    diagnostics = {
        "moment_residual_max": float(np.abs(first_stage.moment_residual(fs)).max()),
        "mean_weight": float(wv.omega[data.selected].mean()),
    }
    return _weighted_fit(data, tau, "semiparametric_iv", wv, bandwidth_mode,
                         diagnostics)


def fit_uncorrected(data: ObservationSet, tau: float | Sequence[float],
                    bandwidth_mode: str = "rot") -> QuantileFit | list[QuantileFit]:
    """Complete-case QR: the weights are the selection dummies."""
    check_columns(data)
    return _weighted_fit(data, tau, "uncorrected",
                         first_stage.WeightVector(data.d, data.selected),
                         bandwidth_mode, {})


def fit_mar(data: ObservationSet, tau: float | Sequence[float],
            bandwidth_mode: str = "rot") -> QuantileFit | list[QuantileFit]:
    """Probit-IPW QR under selection-on-observables, weights treated as known.

    Fitted selection probabilities are clamped below at
    baselines.TRIM_FLOOR before inverting. One probit serves every level
    in tau; a fully observed sample needs none (probit_iterations 0) and
    gives the complete-case fit.
    """
    check_columns(data)
    omega, probit = baselines.mar_weights(data)
    diagnostics = {"probit_iterations": 0 if probit is None else probit.iterations}
    return _weighted_fit(data, tau, "mar",
                         first_stage.WeightVector(omega, data.selected),
                         bandwidth_mode, diagnostics)


def fit(data: ObservationSet, tau: float | Sequence[float],
        estimator: str = "semiparametric_iv",
        **kwargs) -> QuantileFit | list[QuantileFit]:
    """Run one estimator, named as in ESTIMATOR_NAMES, at quantile level tau.

    tau is a float, which gives one QuantileFit, or a sequence of levels,
    which gives a list of fits in the same order. A sequence shares the
    weights, the bandwidths and the conditioning kernel across its levels.
    Each fit's `ci` is at CI_LEVEL (95 %); another level is
    `inference.confidence_intervals(fit.theta, fit.sigma, data.n, level)`.

    Every estimator takes `bandwidth_mode`. The only other keyword is
    `plan`, for semiparametric_iv.
    """
    check_names([estimator])
    # looked up at call time, so rebinding a module attribute (as a tracer
    # does) reaches every caller
    return globals()[f"fit_{estimator}"](data, tau, **kwargs)
