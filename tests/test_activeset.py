import numpy as np
import pytest
from numpy.testing import assert_allclose

from selqr import NumericalError
from selqr.activeset import kkt_residuals, solve_qp
from oracles import enumerate_qp


def random_qp(rng, d=3, m=3):
    """Strictly convex QP with a guaranteed feasible start."""
    L = rng.standard_normal((d, d))
    Q = L @ L.T + d * np.eye(d)
    q = rng.standard_normal(d)
    A = rng.standard_normal((m, d))
    x_feas = rng.standard_normal(d)
    b = A @ x_feas - rng.random(m)   # strict slack at x_feas
    return Q, q, A, b, x_feas


class TestSolveQP:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            Q, q, A, b, x0 = random_qp(rng)
            sol = solve_qp(Q, q, A, b, x0)
            x_oracle, obj_oracle = enumerate_qp(Q, q, A, b)
            assert_allclose(sol.objective, obj_oracle, atol=1e-8)
            assert_allclose(sol.x, x_oracle, atol=1e-6)

    def test_unconstrained_interior_minimum(self):
        Q = np.diag([2.0, 4.0])
        q = np.array([2.0, 4.0])       # minimum at (1, 1)
        A = np.array([[1.0, 0.0]])
        b = np.array([-10.0])
        sol = solve_qp(Q, q, A, b, np.zeros(2))
        assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)
        assert sol.working_set == ()

    def test_duplicate_constraints_survive(self):
        rng = np.random.default_rng(8)
        Q, q, A, b, x0 = random_qp(rng, d=3, m=2)
        A2 = np.vstack([A, A])         # exact duplicates
        b2 = np.concatenate([b, b])
        sol = solve_qp(Q, q, A2, b2, x0)
        _, obj_oracle = enumerate_qp(Q, q, A, b)
        assert_allclose(sol.objective, obj_oracle, atol=1e-8)

    def test_infeasible_start_rejected(self):
        Q = np.eye(2)
        A = np.array([[1.0, 0.0]])
        with pytest.raises(NumericalError, match="infeasible"):
            solve_qp(Q, np.zeros(2), A, np.array([5.0]), np.zeros(2))

    def test_kkt_audit_at_solution(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            Q, q, A, b, x0 = random_qp(rng, d=4, m=6)
            sol = solve_qp(Q, q, A, b, x0)
            kkt = kkt_residuals(Q, q, A, b, sol.x)
            assert kkt["stationarity"] <= 1e-6
            assert kkt["feasibility"] <= 1e-8
            assert kkt["min_multiplier"] >= -1e-7
            assert kkt["complementarity"] <= 1e-6

    def test_kkt_audit_degenerate_optimum(self):
        # three active rows for two variables: the minimum-norm least-squares
        # multipliers are (0.333, 0.783, -0.117); nonnegative ones exist
        Q = np.eye(2)
        q = np.array([0.0, -0.9])
        A = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        b = np.ones(3)
        sol = solve_qp(Q, q, A, b, np.array([2.0, 0.0]))
        assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)
        kkt = kkt_residuals(Q, q, A, b, sol.x)
        assert kkt["n_active"] == 3
        assert kkt["min_multiplier"] >= 0.0
        assert kkt["stationarity"] <= 1e-12
        assert_allclose(kkt["multipliers"], [0.0, 0.95, 0.05], atol=1e-12)
        assert str(kkt["feasibility"]) == "0.0"     # not -0.0
