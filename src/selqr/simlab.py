"""Monte Carlo lab: data generation, replication driver, metric tables.

The outcome model is Y* = 1 + 1*W + 2*X + e(tau) with (W, X) bivariate
normal, five error laws (A-E) recentred so the conditional tau-quantile of
e(tau) is zero, and three logistic selection mechanisms (M1 MAR, M2
MNAR-linear, M3 MNAR-nonlinear) calibrated to roughly 35% missingness.
Replications draw from pre-split RNG streams keyed by (seed, index), so
results are identical no matter how many workers run them.

Metric tables report coefficients in the order (intercept, w, x).
"""

from __future__ import annotations

import csv
import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr, ndtri, stdtrit

from . import estimator as est
from .data import ObservationSet
from .errors import InputError, NumericalError

SETTINGS = ("A", "B", "C", "D", "E")
MECHANISMS = ("M1", "M2", "M3")

# logistic selection index coefficients (alpha, gamma, xi)
_MECH_PARAMS = {
    "M1": (-0.1, 0.8, 0.0),
    "M2": (-2.4, 0.6, 0.6),
    "M3": (-2.6, 1.2, 0.6),
}

_BETA_TRUE = (1.0, 1.0, 2.0)   # intercept, w, x


@dataclass(frozen=True)
class SimulationSpec:
    setting: str
    mechanism: str
    n: int
    reps: int
    tau: float = 0.5
    seed: int = 0
    estimators: tuple[str, ...] = est.ESTIMATOR_NAMES

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.setting not in SETTINGS:
            raise InputError(f"setting must be one of {SETTINGS}")
        if self.mechanism not in MECHANISMS:
            raise InputError(f"mechanism must be one of {MECHANISMS}")
        if self.n < 1:
            raise InputError("n must be >= 1")
        if self.reps < 1:
            raise InputError("reps must be >= 1")
        if not 0.0 < self.tau < 1.0:
            raise InputError("tau must lie strictly inside (0, 1)")
        est.check_names(self.estimators)


@dataclass(frozen=True)
class GeneratedDataset:
    """One replication's sample plus the latent truth behind it."""

    data: ObservationSet
    y_star: np.ndarray
    p: np.ndarray
    theta_true: np.ndarray      # in Z order (intercept, x, w)


def _mixture_quantile(tau: float) -> float:
    """tau-quantile of 0.4 N(0, 1.5^2) + 0.6 N(0, 1), by bisection to 1e-10."""
    cdf = lambda v: 0.4 * ndtr(v / 1.5) + 0.6 * ndtr(v)
    lo, hi = -20.0, 20.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _draw_errors(setting: str, tau: float, x: np.ndarray, rng) -> np.ndarray:
    """Draw e and recentre to e(tau) = e - F^-1(tau) (conditional for E)."""
    n = len(x)
    if setting == "A":
        return rng.standard_normal(n) - ndtri(tau)
    if setting == "B":
        wide = rng.random(n) < 0.4
        eps = rng.standard_normal(n) * np.where(wide, 1.5, 1.0)
        return eps - _mixture_quantile(tau)
    if setting == "C":
        return 0.7 * rng.standard_t(3, n) - 0.7 * stdtrit(3, tau)
    if setting == "D":
        return rng.uniform(-1.5, 1.5, n) - (-1.5 + 3.0 * tau)
    if setting == "E":
        sd = 0.5 * (1.0 + np.abs(x))
        return sd * rng.standard_normal(n) - sd * ndtri(tau)
    raise InputError(f"unknown setting {setting!r}")


def generate(spec: SimulationSpec, replication_index: int) -> GeneratedDataset:
    """Deterministic per-replication draw: identical (seed, index) pairs
    reproduce the dataset bit for bit."""
    ss = np.random.SeedSequence(spec.seed, spawn_key=(replication_index,))
    rng = np.random.default_rng(ss)
    wx = rng.multivariate_normal([2.0, 1.0], [[1.0, 0.5], [0.5, 1.0]], size=spec.n)
    w, x = wx[:, 0], wx[:, 1]
    eps = _draw_errors(spec.setting, spec.tau, x, rng)
    b0, b1, b2 = _BETA_TRUE
    y_star = b0 + b1 * w + b2 * x + eps
    alpha, gamma, xi = _MECH_PARAMS[spec.mechanism]
    if spec.mechanism == "M3":
        index = alpha + gamma * np.sin(x) ** 2 + xi * y_star
    else:
        index = alpha + gamma * x + xi * y_star
    p = expit(index)
    d = (rng.random(spec.n) < p).astype(int)
    data = ObservationSet(d=d, y=np.where(d == 1, y_star, np.nan),
                          w=w.reshape(-1, 1), x=x.reshape(-1, 1))
    theta_true = np.array([b0, b2, b1])   # Z order: intercept, x, w
    return GeneratedDataset(data=data, y_star=y_star, p=p, theta_true=theta_true)


# report order: intercept, instrument slope, covariate slope
REPORT_LABELS = ("intercept", "w", "x")
_Z_TO_REPORT = np.array([0, 2, 1])


def _run_replication(spec: SimulationSpec, idx: int) -> dict:
    """Fit every estimator of spec to replication idx through `estimator.fit`.

    A fit that fails on its draw, numerically or on an input the draw made
    degenerate (a constant probit response, collapsed knot quantiles),
    returns the replication as {"error": cause} instead of raising.
    """
    gd = generate(spec, idx)
    out = {}
    for name in spec.estimators:
        try:
            qf = est.fit(gd.data, spec.tau, name)
        except (InputError, NumericalError, np.linalg.LinAlgError) as exc:
            return {"error": f"{name}: {exc}"}
        out[name] = {
            "theta": qf.theta[_Z_TO_REPORT],
            "ci_lo": qf.ci[_Z_TO_REPORT, 0],
            "ci_hi": qf.ci[_Z_TO_REPORT, 1],
        }
    return out


@dataclass(frozen=True)
class MetricsTable:
    """Per-estimator, per-coefficient simulation metrics plus raw draws."""

    spec: SimulationSpec
    labels: tuple[str, ...]
    metrics: dict                 # estimator -> metric -> (d,) array
    replications: dict            # estimator -> {"theta","ci_lo","ci_hi"} (R,d)
    theta_true: np.ndarray        # _BETA_TRUE, in report order
    excluded: tuple = ()

    METRIC_NAMES = ("bias", "rmse", "ci_length", "coverage")

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["estimator", "coefficient", "metric", "value"])
            for name in self.spec.estimators:
                for j, label in enumerate(self.labels):
                    for metric in self.METRIC_NAMES:
                        writer.writerow([name, label, metric,
                                         repr(float(self.metrics[name][metric][j]))])

    def to_dict(self):
        from . import __version__
        return {
            "version": __version__,
            "spec": {
                "setting": self.spec.setting, "mechanism": self.spec.mechanism,
                "n": self.spec.n, "reps": self.spec.reps, "tau": self.spec.tau,
                "seed": self.spec.seed, "estimators": list(self.spec.estimators),
            },
            "labels": list(self.labels),
            "theta_true": [float(v) for v in self.theta_true],
            "excluded_replications": [list(e) for e in self.excluded],
            "metrics": {
                name: {metric: [float(v) for v in self.metrics[name][metric]]
                       for metric in self.METRIC_NAMES}
                for name in self.spec.estimators
            },
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def format(self) -> str:
        """Four-panel console table (bias, RMSE, CI length, coverage)."""
        width = max(len(n) for n in self.spec.estimators) + 2
        lines = [f"setting {self.spec.setting} / {self.spec.mechanism}  "
                 f"tau={self.spec.tau}  n={self.spec.n}  reps={self.spec.reps}"
                 + (f"  excluded={len(self.excluded)}" if self.excluded else "")]
        panel_names = {"bias": "Mean bias", "rmse": "RMSE",
                       "ci_length": "CI length", "coverage": "Coverage"}
        for metric in self.METRIC_NAMES:
            lines.append("")
            lines.append(panel_names[metric])
            header = " " * width + "".join(f"{lab:>12s}" for lab in self.labels)
            lines.append(header)
            for name in self.spec.estimators:
                vals = self.metrics[name][metric]
                lines.append(f"{name:<{width}s}"
                             + "".join(f"{v:12.3f}" for v in vals))
        return "\n".join(lines)


def run(spec: SimulationSpec, n_jobs: int = 1) -> MetricsTable:
    """Generate, fit and aggregate over spec.reps replications.

    Every replication is fitted by `estimator.fit`. Failed replications are
    excluded from aggregation and reported; more than 2% exclusions fails
    the run with a NumericalError, so below 50 replications one failure
    does. Aggregates are means over stored per-replication arrays (numpy
    pairwise summation) in replication order, so they do not depend on the
    worker count. At most min(n_jobs, spec.reps) worker processes start.
    """
    if n_jobs < 1:
        raise InputError("jobs must be >= 1")
    task = functools.partial(_run_replication, spec)
    workers = min(n_jobs, spec.reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, range(spec.reps),
                                    chunksize=max(1, spec.reps // (8 * workers))))
    else:
        results = list(map(task, range(spec.reps)))

    excluded = tuple((i, r["error"]) for i, r in enumerate(results) if "error" in r)
    if len(excluded) > 0.02 * spec.reps:
        raise NumericalError(
            f"{len(excluded)} of {spec.reps} replications failed (>2%): "
            f"{excluded[:3]}...")
    kept = [r for r in results if "error" not in r]

    theta_true = np.array(_BETA_TRUE)
    metrics, replications = {}, {}
    for name in spec.estimators:
        theta = np.vstack([r[name]["theta"] for r in kept])
        ci_lo = np.vstack([r[name]["ci_lo"] for r in kept])
        ci_hi = np.vstack([r[name]["ci_hi"] for r in kept])
        err = theta - theta_true
        metrics[name] = {
            "bias": err.mean(axis=0),
            "rmse": np.sqrt((err ** 2).mean(axis=0)),
            "ci_length": (ci_hi - ci_lo).mean(axis=0),
            "coverage": ((ci_lo <= theta_true) & (theta_true <= ci_hi)).mean(axis=0),
        }
        replications[name] = {"theta": theta, "ci_lo": ci_lo, "ci_hi": ci_hi}
    return MetricsTable(spec=spec, labels=REPORT_LABELS, metrics=metrics,
                        replications=replications, theta_true=theta_true,
                        excluded=excluded)
