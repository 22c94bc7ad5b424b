"""Series 2SLS estimation of the inverse selection probability.

`estimate_unconstrained` regresses the constant 1 on the D-masked outcome
basis with the instrument basis as instruments, giving the unconstrained
coefficient vector beta_u of g_u(y, x). `weights` turns the fit into
per-observation weights D_i * max(g_u(Y_i, X_i), 1): the fitted values
floored at one, i.e. the value vector projected onto the feasible orthant,
untouched wherever the bound already holds. This is the one weighting rule,
and `weights` alone knows it: it also forms the weights' beta-derivative and
each row's influence on beta_u, which `WeightVector.correction` turns into
the covariance's first-stage term by one two-step formula.

`cone_project` is the audited constrained sieve fit: it projects the fitted
function onto the cone of functions bounded below by one within the spline
span. No weight reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import activeset
from .basis import (BasisPlan, DesignMatrices, build_designs, default_plan,
                    eval_basis)
from .data import ObservationSet
from .errors import InputError, NumericalError

KKT_STATIONARITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-8
Y_GRID_POINTS = 50          # spline-variable grid of the constraint set
MAX_X_ROWS = 500            # observed rows enforced instead of corners past 8 linear variables


@dataclass(frozen=True)
class FirstStageFit:
    """Fitted first stage; immutable and shareable across threads."""

    plan: BasisPlan
    designs: DesignMatrices
    beta_u: np.ndarray
    H_hat: np.ndarray           # J x K, E_n[D phi b']
    c_hat: np.ndarray           # K,   E_n[b]
    influence: np.ndarray       # J x K, (H G^-1 H')^-1 H G^-1; beta_u = influence c
    beta_c: np.ndarray | None = None
    constraint_points: np.ndarray | None = None   # rows of phi at enforced points
    kkt: dict | None = None


@dataclass(frozen=True)
class WeightVector:
    """Selection weights omega_i = D_i * g(Y_i, X_i); estimated weights also
    carry their two-step ingredients, n x J each: d_omega, rows d omega_i /
    d beta, and beta_influence, rows IF_i, row i's influence on beta_hat."""

    omega: np.ndarray
    selected: np.ndarray
    d_omega: np.ndarray | None = None
    beta_influence: np.ndarray | None = None

    def __post_init__(self):
        # copy before freezing so a caller-owned array stays writable
        for name in ("omega", "d_omega", "beta_influence"):
            if getattr(self, name) is not None:
                frozen = np.array(getattr(self, name), dtype=float)
                frozen.setflags(write=False)
                object.__setattr__(self, name, frozen)
        omega, d_omega, influence = self.omega, self.d_omega, self.beta_influence
        if np.asarray(self.selected).dtype != bool:
            raise InputError("selection flags must be boolean")
        if omega.shape != np.shape(self.selected):
            raise InputError(f"{omega.shape} weights for "
                             f"{np.shape(self.selected)} selection flags")
        if (d_omega is None) != (influence is None) or d_omega is not None and (
                d_omega.ndim != 2 or d_omega.shape != influence.shape
                or d_omega.shape[:1] != omega.shape):
            raise InputError("d_omega and beta_influence must both be n x J "
                             "for n weights, or both be absent")
        if not np.isfinite(omega).all():
            raise NumericalError("weights must be finite")
        if (omega[~self.selected] != 0).any():
            raise NumericalError("weights must vanish exactly on unselected rows")
        if (omega[self.selected] < 1.0).any():
            raise NumericalError("selected-row weights must be >= 1")

    def correction(self, psi: np.ndarray, Z: np.ndarray) -> np.ndarray | float:
        """Two-step term T' IF_i at scores psi (zero off the selected rows),
        n x d_z, 0 for known weights: T = E_n[d omega_i / d beta psi_i Z_i'] is
        the beta-derivative of the weighted score (Newey–McFadden 1994, §6)."""
        if self.d_omega is None:
            return 0.0
        return self.beta_influence @ ((self.d_omega * psi[:, None]).T @ Z / len(psi))


def _solve_spd(M: np.ndarray, rhs: np.ndarray):
    """Cholesky solve, retried once with a ridge of 1e-10 tr(M)/dim if M does
    not factor; LinAlgError if the ridged M does not factor either."""
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(M), rhs)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * np.trace(M) / M.shape[0]
        return scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(M + ridge * np.eye(M.shape[0])), rhs)


def estimate_unconstrained(data: ObservationSet,
                           plan: BasisPlan | None = None) -> FirstStageFit:
    """2SLS coefficient of the moment E[b (1 - D phi' beta)] = 0.

    beta_u = (H G^-1 H')^-1 H G^-1 c with H = E_n[D phi b'], G = E_n[b b'],
    c = E_n[b]. One Cholesky factor of H G^-1 H' gives beta_u and the
    influence matrix (H G^-1 H')^-1 H G^-1 that the covariance's
    first-stage term reads. G gets a ridge jitter of 1e-10 tr(G)/K if its
    factorization fails; a singular H G^-1 H' after that raises.
    """
    if plan is None:
        plan = default_plan(data)
    designs = build_designs(data, plan)
    if data.n <= designs.b.shape[1]:
        raise InputError(f"need n > K = {designs.b.shape[1]} rows, got {data.n}")
    n = data.n
    H = designs.phi.T @ designs.b / n
    G = designs.b.T @ designs.b / n
    c = designs.b.mean(axis=0)
    try:
        GinvHt = _solve_spd(G, H.T)
    except np.linalg.LinAlgError:
        raise NumericalError("first-stage rank condition failed (G singular)")
    projector = GinvHt.T              # H G^-1
    try:
        factor = scipy.linalg.cho_factor(projector @ H.T)   # H G^-1 H'
    except np.linalg.LinAlgError:
        raise NumericalError("first-stage rank condition failed")
    beta_u = scipy.linalg.cho_solve(factor, projector @ c)
    influence = scipy.linalg.cho_solve(factor, projector)
    return FirstStageFit(plan=plan, designs=designs, beta_u=beta_u, H_hat=H,
                         c_hat=c, influence=influence)


def moment_residual(fit: FirstStageFit) -> np.ndarray:
    """E_n[b (1 - D phi' beta_u)]; exactly zero when K = J."""
    return fit.c_hat - fit.H_hat.T @ fit.beta_u


def _grid_x_rows(data: ObservationSet) -> np.ndarray:
    """Covariate values at which the bound is enforced off-sample.

    Covariates enter linearly, so each constraint is affine in them, and
    enforcing at the per-coordinate extremes (bounding-box corners) implies
    the bound on every interior row; with no covariates the one corner is
    the empty row. Falls back to evenly subsampled observed rows when the
    corner count would explode.
    """
    x = data.x
    if x.shape[1] <= 8:
        ranges = [(c.min(), c.max()) for c in x.T]
        return np.array(list(itertools.product(*ranges)))
    idx = np.unique(np.linspace(0, data.n - 1, MAX_X_ROWS).round().astype(int))
    return x[idx]


def constraint_matrix(fit: FirstStageFit, data: ObservationSet) -> np.ndarray:
    """Rows of phi at every point where g >= 1 is enforced.

    The set is the selected sample points plus a uniform grid over the
    outcome spline's boundary range crossed with the covariate corners;
    duplicates are collapsed.
    """
    phi_sel = fit.designs.phi[data.selected]
    kv = fit.plan.y_knots
    lead = eval_basis(kv, np.linspace(kv.lo, kv.hi, Y_GRID_POINTS))
    xrows = _grid_x_rows(data)
    grid_rows = np.column_stack([np.repeat(lead, len(xrows), axis=0),
                                 np.tile(xrows, (len(lead), 1))])
    return np.unique(np.vstack([phi_sel, grid_rows]), axis=0)


def cone_project(fit: FirstStageFit, data: ObservationSet) -> FirstStageFit:
    """Least-squares projection of g_u onto {h in span(phi): h >= 1}.

    Minimizes the selected-sample mean of (g_u - h)^2 subject to the bound
    on the constraint set. The QP is solved as a least-distance problem by
    one NNLS call (activeset.solve_qp), then KKT-audited; the audit decides
    acceptance. The projection problem depends only on beta_u and the data,
    so re-running on an already projected fit reproduces beta_c bit for bit.
    """
    A = constraint_matrix(fit, data)
    b = np.ones(len(A))
    phi_sel = fit.designs.phi[data.selected]
    Q = phi_sel.T @ phi_sel / len(phi_sel)
    q = Q @ fit.beta_u

    if (A @ fit.beta_u).min() >= 1.0 - 1e-9:
        kkt = activeset.kkt_residuals(Q, q, A, b, fit.beta_u)
        return replace(fit, beta_c=fit.beta_u.copy(), constraint_points=A,
                       kkt={**kkt, "active_set_size": 0})

    sol = activeset.solve_qp(Q, q, A, b)
    kkt = activeset.kkt_residuals(Q, q, A, b, sol.x)
    scale = max(1.0, np.abs(Q @ sol.x - q).max())
    if kkt["stationarity"] > KKT_STATIONARITY_TOL * scale:
        raise NumericalError(f"cone projection failed its KKT audit: {kkt}")
    if kkt["feasibility"] > FEASIBILITY_TOL:
        raise NumericalError("cone projection returned an infeasible point")
    return replace(fit, beta_c=sol.x, constraint_points=A,
                   kkt={**kkt, "active_set_size": len(sol.working_set)})


def weights(fit: FirstStageFit, data: ObservationSet) -> WeightVector:
    """Observation weights omega_i = D_i * max(g_u(Y_i, X_i), 1) with their
    beta-derivative rows D_i 1{omega_i > 1} phi_i and beta_u's influence rows
    IF_i = influence b_i UJ_i, UJ_i = 1 - phi_i' beta_u the first-stage residual."""
    phi, sel = fit.designs.phi, data.selected
    omega = np.zeros(data.n)
    omega[sel] = np.maximum(phi[sel] @ fit.beta_u, 1.0)
    resid = 1.0 - phi @ fit.beta_u
    return WeightVector(omega, sel, d_omega=phi * (omega > 1.0)[:, None],
                        beta_influence=(fit.designs.b @ fit.influence.T) * resid[:, None])
