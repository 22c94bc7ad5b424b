import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from selqr import NumericalError
from selqr.activeset import kkt_residuals, solve_qp
from oracles import enumerate_qp


def random_qp(rng, d=3, m=3):
    """Strictly convex QP with a strictly feasible point x_feas."""
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
            Q, q, A, b, _ = random_qp(rng)
            sol = solve_qp(Q, q, A, b)
            x_oracle, obj_oracle = enumerate_qp(Q, q, A, b)
            assert_allclose(sol.objective, obj_oracle, atol=1e-8)
            assert_allclose(sol.x, x_oracle, atol=1e-6)

    def test_unconstrained_interior_minimum(self):
        Q = np.diag([2.0, 4.0])
        q = np.array([2.0, 4.0])       # minimum at (1, 1)
        A = np.array([[1.0, 0.0]])
        b = np.array([-10.0])
        sol = solve_qp(Q, q, A, b)
        assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)
        assert sol.working_set == ()

    def test_duplicate_constraints_survive(self):
        rng = np.random.default_rng(8)
        Q, q, A, b, _ = random_qp(rng, d=3, m=2)
        A2 = np.vstack([A, A])         # exact duplicates
        b2 = np.concatenate([b, b])
        sol = solve_qp(Q, q, A2, b2)
        _, obj_oracle = enumerate_qp(Q, q, A, b)
        assert_allclose(sol.objective, obj_oracle, atol=1e-8)

    def test_redundant_and_duplicated_rows_match_enumeration(self):
        # m = 8 rows for d = 3: two exact duplicates, one positive multiple
        # and one row implied by the others with a looser bound
        rng = np.random.default_rng(30)
        for _ in range(20):
            Q, q, A, b, _ = random_qp(rng, d=3, m=4)
            A8 = np.vstack([A, A[0], A[1], 2.5 * A[2], A[0] + A[1]])
            b8 = np.concatenate([b, b[[0, 1]], [2.5 * b[2], b[0] + b[1] - 1.0]])
            sol = solve_qp(Q, q, A8, b8)
            x_oracle, obj_oracle = enumerate_qp(Q, q, A8, b8)
            assert_allclose(sol.objective, obj_oracle, atol=1e-8)
            assert_allclose(sol.x, x_oracle, atol=1e-6)

    def test_infeasible_constraint_set_rejected(self):
        # x_0 >= 1 and -x_0 >= 0 admit no point
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(NumericalError, match="infeasible"):
            solve_qp(np.eye(2), np.zeros(2), A, np.array([1.0, 0.0]))

    def test_indefinite_hessian_rejected(self):
        A = np.array([[1.0, 0.0]])
        with pytest.raises(NumericalError, match="positive definite"):
            solve_qp(np.diag([1.0, -1.0]), np.zeros(2), A, np.array([1.0]))

    def test_nnls_iteration_limit_is_numerical_error(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")
        monkeypatch.setattr(scipy.optimize, "nnls", exhausted)
        A = np.array([[1.0, 0.0]])
        with pytest.raises(NumericalError, match="iteration limit") as err:
            solve_qp(np.eye(2), np.zeros(2), A, np.array([1.0]))
        # the benchmark tracer reads a cap from the arguments on this phrase
        assert "did not converge" not in str(err.value)

    def test_kkt_audit_at_solution(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            Q, q, A, b, _ = random_qp(rng, d=4, m=6)
            sol = solve_qp(Q, q, A, b)
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
        sol = solve_qp(Q, q, A, b)
        assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)
        # audit the exact optimum: the solver's x[1] is a rounding-level
        # 5.6e-16, which would make the feasibility residual nonzero
        kkt = kkt_residuals(Q, q, A, b, np.array([1.0, 0.0]))
        assert kkt["n_active"] == 3
        assert kkt["min_multiplier"] >= 0.0
        assert kkt["stationarity"] <= 1e-12
        assert_allclose(kkt["multipliers"], [0.0, 0.95, 0.05], atol=1e-12)
        assert str(kkt["feasibility"]) == "0.0"     # not -0.0
