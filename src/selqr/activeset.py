"""Primal active-set solver for small strictly convex QPs.

Solves  min_x  0.5 x'Qx - q'x  subject to  Ax >= b  where Q is symmetric
positive definite, the number of variables is small and the number of
constraints may be large. Steps are computed in the null space of the
working-set rows; the working set grows by the first blocking constraint
and shrinks at the most negative multiplier, so termination is finite for
nondegenerate problems and an iteration cap guards the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class QPSolution:
    x: np.ndarray
    working_set: tuple[int, ...]
    multipliers: np.ndarray     # aligned with working_set
    iterations: int
    objective: float


def _null_space(rows: np.ndarray, dim: int) -> np.ndarray:
    if rows.size == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(rows)
    rank = int((s > 1e-12 * s[0]).sum()) if s.size else 0
    return vt[rank:].T


def solve_qp(Q: np.ndarray, q: np.ndarray, A: np.ndarray, b: np.ndarray,
             x0: np.ndarray, max_iter: int | None = None) -> QPSolution:
    """Run the active-set iteration from a feasible starting point x0.

    max_iter defaults to 100*(dim+1) + len(b): each iteration adds or drops
    one working-set row, and large constraint sets (the cone projection's
    grows with the sample) can take more steps than a cap in dim alone
    allows. Raises NumericalError if x0 is infeasible or the cap is hit.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    dim = len(x)
    if max_iter is None:
        max_iter = 100 * (dim + 1) + len(b)
    if (A @ x - b).min() < -1e-9:
        raise NumericalError("active-set start point is infeasible")

    work: list[int] = []
    lam = np.array([])
    for it in range(max_iter):
        grad = Q @ x - q
        Zn = _null_space(A[work], dim)
        if Zn.shape[1]:
            reduced = Zn.T @ Q @ Zn
            try:
                p = Zn @ np.linalg.solve(reduced, -Zn.T @ grad)
            except np.linalg.LinAlgError:
                raise NumericalError("QP Hessian singular on the working-set null space")
        else:
            p = np.zeros(dim)

        if np.abs(p).max() <= 1e-11 * max(1.0, np.abs(x).max()):
            if not work:
                return QPSolution(x, (), np.array([]), it + 1, _objective(Q, q, x))
            lam, *_ = np.linalg.lstsq(A[work].T, grad, rcond=None)
            if lam.min() >= -1e-8 * max(1.0, np.abs(grad).max()):
                return QPSolution(x, tuple(work), lam, it + 1, _objective(Q, q, x))
            work.pop(int(np.argmin(lam)))
            continue

        # step to the nearest blocking constraint (clip FP-negative residuals)
        Ap = A @ p
        resid = A @ x - b
        blocking = Ap < -1e-12
        alpha, hit = 1.0, None
        if blocking.any():
            ratios = np.maximum(resid[blocking], 0.0) / (-Ap[blocking])
            j = int(np.argmin(ratios))
            if ratios[j] < 1.0:
                alpha = float(ratios[j])
                hit = int(np.where(blocking)[0][j])
        x = x + alpha * p
        if hit is not None and len(work) < dim:
            work.append(hit)
    raise NumericalError(f"active-set QP did not converge within {max_iter} iterations")


def _objective(Q, q, x) -> float:
    return float(0.5 * x @ Q @ x - q @ x)


def kkt_residuals(Q, q, A, b, x, active_tol: float = 1e-7) -> dict:
    """Stationarity / feasibility / complementarity residuals at x.

    Multipliers are recomputed by least squares on the constraints active at
    x, independent of how x was obtained, so this audits any candidate
    solution.
    """
    grad = Q @ x - q
    resid = A @ x - b
    active = np.where(resid <= active_tol * max(1.0, np.abs(b).max()))[0]
    if active.size:
        lam, *_ = np.linalg.lstsq(A[active].T, grad, rcond=None)
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
        "feasibility": float(-min(resid.min(), 0.0)),
        "min_multiplier": min_multiplier,
        "complementarity": complementarity,
        "n_active": int(active.size),
        "multipliers": lam,
    }
