"""Clamped B-spline bases and the two first-stage design matrices.

The first stage works with two matrices built from the same sample: an
outcome-side design ``Phi = [spline(Y), X] * D`` and an instrument-side
design ``B = [spline(W_0), W_1, ..., X]``. A `BasisPlan` is the pair of knot
vectors of those two splines; `build_designs` is the one place that lays
the columns out. Spline evaluation is clamped to the knot range, so fitted
functions extend to arbitrary query points as constants in the spline
variable beyond the training support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ObservationSet
from .errors import InputError

SPLINE_DEGREE = 2   # both first-stage splines are quadratic


@dataclass(frozen=True)
class KnotVector:
    """Clamped knot sequence for one spline variable.

    degree >= 1, boundary knots repeated degree+1 times, interior knots
    strictly increasing inside (lo, hi). Spans degree + 1 + len(interior)
    basis functions.
    """

    degree: int
    lo: float
    hi: float
    interior: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "interior", tuple(float(t) for t in self.interior))
        if self.degree < 1:
            raise InputError("spline degree must be >= 1")
        if not self.lo < self.hi:
            raise InputError("zero-width support")
        arr = np.asarray(self.interior)
        if arr.size and not ((arr > self.lo).all() and (arr < self.hi).all()):
            raise InputError("interior knots must lie strictly inside the boundary")
        if arr.size > 1 and not (np.diff(arr) > 0).all():
            raise InputError("interior knots must be strictly increasing")

    @property
    def n_basis(self) -> int:
        return self.degree + 1 + len(self.interior)

    def full_knots(self) -> np.ndarray:
        return np.concatenate([
            np.full(self.degree + 1, self.lo),
            np.asarray(self.interior, dtype=float),
            np.full(self.degree + 1, self.hi),
        ])


def make_knots(values, n_interior: int, degree: int) -> KnotVector:
    """Knot vector over the empirical range of `values`.

    Boundary knots sit at min/max; interior knots at the equally spaced
    empirical quantiles k/(n_interior+1). Duplicated or boundary-touching
    quantiles are collapsed, and an error is raised if the collapse changes
    the basis count.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InputError("cannot place knots on an empty sample")
    lo, hi = float(values.min()), float(values.max())
    if not lo < hi:
        raise InputError("zero-width support")
    if n_interior < 0:
        raise InputError("n_interior must be >= 0")
    if n_interior:
        levels = np.arange(1, n_interior + 1) / (n_interior + 1)
        qs = np.quantile(values, levels)
        qs = np.unique(qs[(qs > lo) & (qs < hi)])
        if len(qs) != n_interior:
            raise InputError(
                f"interior knot quantiles collapse from {n_interior} to {len(qs)}, "
                "changing the basis count"
            )
        interior = tuple(qs)
    else:
        interior = ()
    return KnotVector(degree=degree, lo=lo, hi=hi, interior=interior)


def eval_basis(kv: KnotVector, x) -> np.ndarray:
    """Evaluate all basis functions at points x (clamped to [lo, hi]).

    Returns shape (n_basis,) for scalar x, else (len(x), n_basis). Entries
    are nonnegative and each row sums to one. The k + 1 nonzero values of a
    row come from the Cox-de Boor recurrence, run over all points at once
    in the order of scipy's `_deBoor_D`, so the matrix equals
    `scipy.interpolate.BSpline.design_matrix(...).toarray()` bit for bit.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    pts = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), kv.lo, kv.hi)
    if np.isnan(pts).any():
        raise InputError("cannot evaluate a spline basis at NaN")
    t, k, n_basis = kv.full_knots(), kv.degree, kv.n_basis
    # span ell with t[ell] <= x < t[ell+1]; x = hi falls in the last one.
    # Interior knots are distinct and inside (lo, hi), so t[ell] < t[ell+1]
    # and xb > xa below: scipy's xb == xa branch cannot fire.
    ell = np.clip(np.searchsorted(t, pts, side="right") - 1, k, n_basis - 1)
    h = np.zeros((len(pts), k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            xb, xa = t[ell + m], t[ell + m - j]
            w = hh[:, m - 1] / (xb - xa)
            h[:, m - 1] += w * (xb - pts)
            h[:, m] = w * (pts - xa)
    out = np.zeros((len(pts), n_basis))
    np.put_along_axis(out, (ell - k)[:, None] + np.arange(k + 1), h, axis=1)
    return out[0] if scalar else out


@dataclass(frozen=True)
class BasisPlan:
    """Knot vectors of the two splines: Y in the outcome design, the first
    instrument in the instrument design. `build_designs` fixes the rest."""

    y_knots: KnotVector
    w_knots: KnotVector


@dataclass(frozen=True)
class DesignMatrices:
    """Row-wise evaluations of the two first-stage bases.

    phi is pre-multiplied by D, so unselected rows are zero; B is evaluated
    on every row.
    """

    phi: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for a in (self.phi, self.b):
            a.setflags(write=False)


def build_designs(data: ObservationSet, plan: BasisPlan) -> DesignMatrices:
    """Assemble Phi = [spline(Y), X] * D (n x J) and B = [spline(W_0), W_1..,
    X] (n x K) for a sample.

    Phi rows with D_i = 0 are zeroed; before the mask they hold the clamped
    evaluation at (0, X_i). K < J is an InputError: the moment condition
    would not identify beta.
    """
    phi = np.column_stack([eval_basis(plan.y_knots, data.y_filled()), data.x])
    phi *= data.selected[:, None]
    b = np.column_stack([eval_basis(plan.w_knots, data.w[:, 0]), data.w[:, 1:], data.x])
    if b.shape[1] < phi.shape[1]:
        raise InputError(
            f"instrument design needs at least as many columns as the outcome "
            f"design (got K={b.shape[1]} < J={phi.shape[1]})"
        )
    return DesignMatrices(phi=phi, b=b)


def default_plan(data: ObservationSet,
                 y_interior: int = 0, w_interior: int = 2) -> BasisPlan:
    """Knots of degree SPLINE_DEGREE over the selected outcomes and the
    first instrument column.

    With one covariate, one instrument and the defaults this gives J = 4
    and K = 6.
    """
    return BasisPlan(
        y_knots=make_knots(data.y[data.selected], y_interior, SPLINE_DEGREE),
        w_knots=make_knots(data.w[:, 0], w_interior, SPLINE_DEGREE))
