"""Clamped B-spline bases and the two first-stage design matrices.

The first stage works with two matrices built from the same sample: an
outcome-side design ``Phi`` whose rows expand (Y_i, X_i), and an
instrument-side design ``B`` whose rows expand (W_i, X_i). Each design is a
single clamped B-spline block for one variable plus columns for the
variables entered linearly. Spline evaluation is clamped to the knot range,
so fitted functions extend to arbitrary query points as constants in the
spline variable beyond the training support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .data import ObservationSet
from .errors import InputError


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
    are nonnegative and each row sums to one.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    pts = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), kv.lo, kv.hi)
    out = BSpline.design_matrix(pts, kv.full_knots(), kv.degree).toarray()
    return out[0] if scalar else out


@dataclass(frozen=True)
class BlockSpec:
    """Layout of one design matrix: a spline block plus linear columns.

    spline_var / linear_vars name sample columns: "y", "w0", "w1", ...,
    "x0", "x1", ... With spline_var None the block starts with a constant
    column instead of a spline (the spline's partition of unity otherwise
    supplies the constant).
    """

    spline_var: str | None
    knots: KnotVector | None
    linear_vars: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "linear_vars", tuple(self.linear_vars))
        if (self.spline_var is None) != (self.knots is None):
            raise InputError("spline_var and knots must be supplied together")

    @property
    def n_columns(self) -> int:
        lead = 1 if self.knots is None else self.knots.n_basis
        return lead + len(self.linear_vars)


def _column(data: ObservationSet, name: str) -> np.ndarray:
    if name == "y":
        return data.y_filled()
    kind, idx = name[0], name[1:]
    try:
        i = int(idx)
        if kind == "w":
            return data.w[:, i]
        if kind == "x":
            return data.x[:, i]
    except (ValueError, IndexError):
        pass
    raise InputError(f"unknown variable name {name!r}")


def eval_block(spec: BlockSpec, data: ObservationSet) -> np.ndarray:
    """One block evaluated on every row; unselected rows take y = 0 (clamped)."""
    cols = []
    if spec.knots is None:
        cols.append(np.ones(data.n))
    else:
        cols.append(eval_basis(spec.knots, _column(data, spec.spline_var)))
    for name in spec.linear_vars:
        cols.append(_column(data, name))
    return np.column_stack(cols)


@dataclass(frozen=True)
class BasisPlan:
    """The pair of block layouts for the outcome and instrument designs."""

    phi: BlockSpec
    b: BlockSpec

    def __post_init__(self):
        if self.b.n_columns < self.phi.n_columns:
            raise InputError(
                f"instrument design needs at least as many columns as the outcome "
                f"design (got K={self.b.n_columns} < J={self.phi.n_columns})"
            )

    @property
    def j(self) -> int:
        return self.phi.n_columns

    @property
    def k(self) -> int:
        return self.b.n_columns


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
    """Assemble Phi (n x J) and B (n x K) for a sample.

    Phi rows with D_i = 0 are zeroed; `eval_block(plan.phi, data)` gives
    the unmasked rows, which hold the clamped evaluation at (0, X_i).
    """
    phi = eval_block(plan.phi, data) * data.selected[:, None]
    b = eval_block(plan.b, data)
    if phi.shape[1] != plan.j or b.shape[1] != plan.k:
        raise InputError("plan dimensions inconsistent with the data")
    return DesignMatrices(phi=phi, b=b)


def default_plan(data: ObservationSet,
                 y_degree: int = 2, y_interior: int = 0,
                 w_degree: int = 2, w_interior: int = 2) -> BasisPlan:
    """Quadratic-spline layout used throughout: spline in Y for the outcome
    design, spline in the first instrument for the instrument design, all
    covariates (and any extra instruments) entered linearly.

    With one covariate and the defaults this gives J = 4 and K = 6.
    """
    x_vars = tuple(f"x{i}" for i in range(data.x.shape[1]))
    extra_w = tuple(f"w{i}" for i in range(1, data.w.shape[1]))
    y_kv = make_knots(data.y[data.selected], y_interior, y_degree)
    w_kv = make_knots(data.w[:, 0], w_interior, w_degree)
    return BasisPlan(
        phi=BlockSpec("y", y_kv, x_vars),
        b=BlockSpec("w0", w_kv, extra_w + x_vars),
    )
