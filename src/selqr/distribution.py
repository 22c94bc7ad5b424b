"""Selection-corrected distribution function.

F(y) = sum over selected rows of 1{Y_i <= y} * g_i / sum_j g_j: a right-
continuous step function whose jumps are the normalized inverse selection
probabilities. Under unit weights it degenerates to the empirical CDF of
the selected subsample, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ObservationSet
from .errors import InputError
from .first_stage import FirstStageFit, weights


@dataclass(frozen=True)
class CorrectedCDF:
    """Weighted step-function CDF over the selected outcomes."""

    support: np.ndarray      # sorted distinct outcome values
    cum_weights: np.ndarray  # cumulative normalized weights, ends at 1

    def __post_init__(self):
        self.support.setflags(write=False)
        self.cum_weights.setflags(write=False)

    @classmethod
    def from_values(cls, y, g) -> "CorrectedCDF":
        """Build from finite selected outcomes y and weights g >= 0."""
        y = np.asarray(y, dtype=float)
        g = np.asarray(g, dtype=float)
        if y.size == 0:
            raise InputError("no selected rows to build a CDF from")
        if y.shape != g.shape or not (np.isfinite(y).all() and np.isfinite(g).all()):
            raise InputError("a CDF needs one finite weight per finite outcome")
        if (g < 0).any() or g.sum() <= 0:
            raise InputError("CDF weights must be nonnegative with positive sum")
        order = np.argsort(y, kind="stable")
        ys, gs = y[order], g[order]
        support, start = np.unique(ys, return_index=True)
        jumps = np.add.reduceat(gs, start)
        cum = np.cumsum(jumps)
        cum /= cum[-1]
        cum[-1] = 1.0
        return cls(support=support, cum_weights=cum)

    def evaluate(self, y) -> np.ndarray:
        """F(y), right-continuous."""
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.support, y, side="right")
        padded = np.concatenate([[0.0], self.cum_weights])
        return padded[idx]

    def quantile(self, tau: float) -> float:
        """Generalized inverse: the smallest support point with F >= tau."""
        if not 0.0 < tau < 1.0:
            raise InputError("tau must lie strictly inside (0, 1)")
        idx = np.searchsorted(self.cum_weights, tau, side="left")
        return float(self.support[min(idx, len(self.support) - 1)])


def corrected_cdf(fit: FirstStageFit, data: ObservationSet) -> CorrectedCDF:
    """CDF weighted by the fitted inverse selection probabilities.

    Uses the same per-observation weights as the quantile stage, so the
    distribution and regression sides of a fit stay consistent.
    """
    if data.n_selected == 0:
        raise InputError("no selected rows")
    omega = weights(fit, data).omega
    return CorrectedCDF.from_values(data.y[data.selected], omega[data.selected])

