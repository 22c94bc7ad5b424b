import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import selqr.qr
from selqr import (InputError, NumericalError, QuantileProblem, check_loss,
                   quantile_score, solve)
from selqr.qr import kb_stationarity
from oracles import brute_force_qr


class TestCheckLoss:
    def test_positive_residual(self):
        assert check_loss(1.0, 0.5) == 0.5

    def test_negative_residual(self):
        assert check_loss(-1.0, 0.25) == 0.75

    def test_zero(self):
        assert check_loss(0.0, 0.9) == 0.0

    def test_vectorized(self):
        assert_allclose(check_loss(np.array([1.0, -1.0]), 0.25), [0.25, 0.75])


class TestQuantileScore:
    def test_values(self):
        assert quantile_score(2.0, 0.5) == 0.5
        assert quantile_score(-2.0, 0.5) == -0.5

    def test_zero_uses_strict_inequality(self):
        assert quantile_score(0.0, 0.3) == pytest.approx(0.3)


def intercept_problem(y, w, tau):
    y = np.asarray(y, dtype=float)
    return QuantileProblem(Z=np.ones((len(y), 1)), y=y,
                           w=np.asarray(w, dtype=float), tau=tau)


class TestSolve:
    def test_sample_median(self):
        sol = solve(intercept_problem([1, 2, 3], [1, 1, 1], 0.5))
        assert_allclose(sol.theta, [2.0], atol=1e-9)

    def test_weighted_median_forces_largest_point(self):
        sol = solve(intercept_problem([1, 2, 4], [1, 1, 3], 0.5))
        assert_allclose(sol.theta, [4.0], atol=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for k in range(25):
            n, d = 12, 3
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
            y = rng.standard_normal(n) * 2
            w = rng.uniform(1, 3, n)
            tau = rng.choice([0.1, 0.25, 0.5, 0.9])
            sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))
            _, obj_oracle = brute_force_qr(Z, y, w, tau)
            assert sol.objective <= obj_oracle + 1e-6
            assert abs(sol.objective - obj_oracle) < 1e-6

    def test_unweighted_consistency(self):
        rng = np.random.default_rng(4)
        Z = np.column_stack([np.ones(10), rng.standard_normal(10)])
        y = rng.standard_normal(10)
        sol = solve(QuantileProblem(Z=Z, y=y, w=np.ones(10), tau=0.25))
        theta_oracle, obj_oracle = brute_force_qr(Z, y, np.ones(10), 0.25)
        assert_allclose(sol.objective, obj_oracle, atol=1e-8)
        assert_allclose(sol.theta, theta_oracle, atol=1e-6)

    def test_vertex_interpolation(self):
        rng = np.random.default_rng(2)
        n, d = 40, 3
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        y = rng.standard_normal(n)
        sol = solve(QuantileProblem(Z=Z, y=y, w=rng.uniform(1, 2, n), tau=0.4))
        assert len(sol.active_set) == d
        resid = y - Z @ sol.theta
        assert np.abs(resid[list(sol.active_set)]).max() < 1e-8

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(9)
        Z = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        y = rng.standard_normal(30)
        w = rng.uniform(0.5, 2, 30)
        t1 = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.3)).theta
        t2 = solve(QuantileProblem(Z=Z, y=y, w=7.5 * w, tau=0.3)).theta
        assert_allclose(t1, t2, atol=1e-8)

    def test_equivariance(self):
        rng = np.random.default_rng(12)
        Z = np.column_stack([np.ones(25), rng.standard_normal((25, 2))])
        y = rng.standard_normal(25)
        w = rng.uniform(1, 2, 25)
        base = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.6)).theta
        gamma = np.array([0.5, -1.0, 2.0])
        shifted = solve(QuantileProblem(Z=Z, y=y + Z @ gamma, w=w, tau=0.6)).theta
        assert_allclose(shifted, base + gamma, atol=1e-7)
        scaled = solve(QuantileProblem(Z=Z, y=3.0 * y, w=w, tau=0.6)).theta
        assert_allclose(scaled, 3.0 * base, atol=1e-7)

    def test_subgradient_certificate(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = 20
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
            y = rng.standard_normal(n)
            w = rng.uniform(1, 3, n)
            sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.35))
            assert kb_stationarity(Z, y - Z @ sol.theta, w, 0.35) <= 1e-7

    def test_zero_weight_rows_dropped(self):
        y = np.array([1.0, np.nan, 3.0, 2.0])
        w = np.array([1.0, 0.0, 1.0, 1.0])
        sol = solve(QuantileProblem(Z=np.ones((4, 1)), y=y, w=w, tau=0.5))
        assert_allclose(sol.theta, [2.0], atol=1e-9)

    def test_rank_deficient_design(self):
        Z = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(NumericalError, match="rank"):
            solve(QuantileProblem(Z=Z, y=np.arange(10.0), w=np.ones(10), tau=0.5))

    def test_tau_validation(self):
        with pytest.raises(InputError):
            QuantileProblem(Z=np.ones((3, 1)), y=np.arange(3.0),
                            w=np.ones(3), tau=1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(InputError):
            QuantileProblem(Z=np.ones((3, 1)), y=np.arange(3.0),
                            w=np.array([1.0, -1.0, 1.0]), tau=0.5)


def non_optimal_vertex():
    """A vertex of an n = 8, d = 3 median regression that is not optimal but
    passes the coordinatewise interval test."""
    rng = np.random.default_rng(0)
    n = 8
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = rng.standard_normal(n)
    rows = [1, 2, 7]
    return Z, y, np.ones(n), 0.5, np.linalg.solve(Z[rows], y[rows])


def certificate_slack(Z, w):
    return 1e-6 * max(1.0, float(np.abs(w @ np.abs(Z)).max()))


class TestCertificate:
    def test_kb_stationarity_rejects_a_non_optimal_vertex(self):
        Z, y, w, tau, theta = non_optimal_vertex()
        resid = y - Z @ theta
        _, obj_oracle = brute_force_qr(Z, y, w, tau)
        assert np.sum(w * check_loss(resid, tau)) > obj_oracle + 0.3
        assert kb_stationarity(Z, resid, w, tau) > 0.5

    def test_solve_rejects_a_non_optimal_vertex(self, monkeypatch):
        Z, y, w, tau, theta = non_optimal_vertex()
        fake = SimpleNamespace(status=0, message="",
                               eqlin=SimpleNamespace(marginals=-theta))
        monkeypatch.setattr(selqr.qr, "linprog", lambda *a, **k: fake)
        with pytest.raises(NumericalError, match="certificate"):
            solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))

    def test_exact_on_every_vertex(self):
        # the certificate accepts a vertex exactly when it is optimal
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = 7
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
            y = rng.standard_normal(n)
            w = rng.uniform(0.5, 3, n)
            tau = rng.choice([0.1, 0.25, 0.5, 0.9])
            _, obj_oracle = brute_force_qr(Z, y, w, tau)
            for rows in itertools.combinations(range(n), 3):
                theta = np.linalg.solve(Z[list(rows)], y[list(rows)])
                resid = y - Z @ theta
                optimal = np.sum(w * check_loss(resid, tau)) <= obj_oracle + 1e-9
                accepted = kb_stationarity(Z, resid, w, tau) <= certificate_slack(Z, w)
                assert accepted == optimal

    def test_degenerate_optimum_passes(self):
        # integer data: more than d zero residuals, the bounded
        # least-squares branch
        rng = np.random.default_rng(5)
        n = 60
        x = rng.integers(0, 3, n).astype(float)
        Z = np.column_stack([np.ones(n), x])
        y = rng.integers(0, 5, n).astype(float)
        w = rng.choice([1.0, 2.0], n)
        for tau in (0.25, 0.5, 0.8):
            sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))
            assert len(sol.active_set) > 2
            assert kb_stationarity(Z, y - Z @ sol.theta, w, tau) <= certificate_slack(Z, w)

    def test_interpolated_rows_score_tau(self):
        # an exact re-solve alone leaves a negative residual on 3 of these
        # 30 problems
        rng = np.random.default_rng(8)
        for tau in [0.2, 0.5, 0.7] * 10:
            n = 200
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2)) * 3])
            y = 10 + rng.standard_normal(n) * 5
            sol = solve(QuantileProblem(Z=Z, y=y, w=rng.uniform(1, 20, n), tau=tau))
            active = list(sol.active_set)
            resid = (y - Z @ sol.theta)[active]
            assert len(active) == 3 and np.abs(resid).max() < 1e-12
            assert (quantile_score(resid, tau) == tau).all()
