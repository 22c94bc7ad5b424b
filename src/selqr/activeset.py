"""Least-distance solver for small strictly convex QPs.

Solves  min_x  0.5 x'Qx - q'x  subject to  Ax >= b  where Q is symmetric
positive definite, the number of variables is small and the number of
constraints may be large. With Q = LL' and x_u = Q^-1 q the substitution
z = L'(x - x_u) turns the problem into the least-distance problem
min 0.5 |z|^2 subject to Gz >= h, G = A L'^-1, h = b - A x_u, which one
nonnegative least-squares solve settles (Lawson & Hanson, Solving Least
Squares Problems, 1974, ch. 23). It needs no starting point and no
iteration cap of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError

KKT_ACTIVE_TOL = 1e-7       # relative slack under which a constraint counts as active


@dataclass(frozen=True)
class QPSolution:
    x: np.ndarray
    working_set: tuple[int, ...]
    iterations: int             # NNLS solves: 0 or 1
    objective: float


def solve_qp(Q: np.ndarray, q: np.ndarray, A: np.ndarray, b: np.ndarray) -> QPSolution:
    """Solve the QP through its least-distance form and one NNLS call.

    NNLS of E = [G'; h'] against the last unit vector gives u >= 0 with
    residual r = Eu - e; then z = -r[:J] / r[J] and the multipliers of
    Ax >= b are u / -r[J]. The working set is the rows with a positive
    multiplier. Raises NumericalError if Q has no Cholesky factor, if the
    constraint set is empty (the NNLS residual vanishes) or if NNLS hits
    its iteration limit.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        L = scipy.linalg.cholesky(Q, lower=True)
    except np.linalg.LinAlgError:
        raise NumericalError("QP Hessian is not positive definite")
    x_u = scipy.linalg.cho_solve((L, True), q)
    h = b - A @ x_u
    if (h <= 0.0).all():
        return QPSolution(x_u, (), 0, _objective(Q, q, x_u))

    from scipy.optimize import nnls     # on use: no estimator projects
    E = np.vstack([scipy.linalg.solve_triangular(L, A.T, lower=True), h])
    e = np.zeros(len(E))
    e[-1] = 1.0
    try:
        u, rnorm = nnls(E, e)
    except RuntimeError as exc:
        raise NumericalError(f"least-distance NNLS hit its iteration limit: {exc}")
    if rnorm <= 1e-12:    # E u reaches e: no z satisfies Gz >= h
        raise NumericalError("QP constraint set is infeasible")
    r = E @ u - e
    z = -r[:-1] / r[-1]
    x = x_u + scipy.linalg.solve_triangular(L, z, lower=True, trans="T")
    work = np.flatnonzero(u > 0.0)
    return QPSolution(x, tuple(int(i) for i in work), 1, _objective(Q, q, x))


def _objective(Q, q, x) -> float:
    return float(0.5 * x @ Q @ x - q @ x)


def kkt_residuals(Q, q, A, b, x) -> dict:
    """Stationarity / feasibility / complementarity residuals at x.

    A constraint is active when its slack A_i x - b_i is at most
    KKT_ACTIVE_TOL * max(1, max |b|). Multipliers are recomputed by least
    squares on the active constraints, independent of how x was obtained,
    so this audits any candidate solution. When more rows are active than
    there are variables, the minimum-norm least-squares multipliers can be
    negative at a true optimum; they are then recomputed by nonnegative
    least squares on the same rows, whose residual is the reported
    stationarity.
    """
    grad = Q @ x - q
    resid = A @ x - b
    active = np.where(resid <= KKT_ACTIVE_TOL * max(1.0, np.abs(b).max()))[0]
    if active.size:
        lam, *_ = np.linalg.lstsq(A[active].T, grad, rcond=None)
        if lam.min() < 0.0:
            from scipy.optimize import nnls
            lam, _ = nnls(A[active].T, grad)
        stationarity = float(np.abs(grad - A[active].T @ lam).max())
        min_multiplier = float(lam.min())
        complementarity = float(np.abs(lam * resid[active]).max())
    else:
        lam = np.array([])
        stationarity = float(np.abs(grad).max())
        min_multiplier = 0.0
        complementarity = 0.0
    return {
        "stationarity": stationarity,
        "feasibility": max(0.0, -float(resid.min())),
        "min_multiplier": min_multiplier,
        "complementarity": complementarity,
        "n_active": int(active.size),
        "multipliers": lam,
    }
