import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

import selqr.baselines
from selqr import (InputError, NumericalError, QuantileProblem, SimulationSpec, fit_mar,
                   fit_uncorrected, generate, probit_fit, solve)
from selqr.baselines import _probit_parts, mar_weights
from oracles import probit_grid_max, probit_loglik, probit_parts_reference


class TestProbit:
    def test_intercept_only_half_ones(self):
        d = np.array([0, 1] * 50)
        fit = probit_fit(d, np.ones((100, 1)))
        assert_allclose(fit.gamma, [0.0], atol=1e-8)
        vector = probit_fit(d, np.ones(100))     # a 1-D X is one column
        assert np.array_equal(vector.gamma, fit.gamma) and vector.iterations == fit.iterations

    def test_intercept_only_seventy_percent(self):
        d = np.array([1] * 70 + [0] * 30)
        fit = probit_fit(d, np.ones((100, 1)))
        assert_allclose(fit.gamma, [norm.ppf(0.7)], atol=1e-7)
        assert abs(fit.gamma[0] - 0.5244) < 1e-3

    def test_matches_grid_search(self):
        rng = np.random.default_rng(6)
        n = 200
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        gamma_true = np.array([0.3, 0.8, -0.5])
        d = (rng.random(n) < norm.cdf(X @ gamma_true)).astype(float)
        fit = probit_fit(d, X)
        ll_grid, _ = probit_grid_max(d, X)
        ll_fit = probit_loglik(fit.gamma, d, X)
        assert ll_fit >= ll_grid - 1e-4

    def test_parts_match_scipy_stats_bit_for_bit(self):
        rng = np.random.default_rng(23)
        n = 400
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        d = (rng.random(n) < 0.6).astype(float)
        # up to |s| near the separation bound, where the log tails matter
        for scale in (0.0, 0.3, 2.0, 8.0):
            gamma = scale * rng.standard_normal(3)
            for got, want in zip(_probit_parts(gamma, d, X),
                                 probit_parts_reference(gamma, d, X)):
                assert np.array_equal(got, want)

    def test_gradient_and_hessian_at_solution(self):
        rng = np.random.default_rng(13)
        n = 500
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        d = (rng.random(n) < norm.cdf(0.2 + 0.6 * X[:, 1])).astype(float)
        fit = probit_fit(d, X)
        _, grad, hess, _ = _probit_parts(fit.gamma, d, X)
        assert np.abs(grad).max() < 1e-8
        assert (np.linalg.eigvalsh(hess) < 0).all()

    def test_converged_on_the_last_allowed_step_returns(self, monkeypatch):
        rng = np.random.default_rng(0)
        n = 300
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        d = (rng.random(n) < norm.cdf(0.2 * X[:, 1])).astype(float)
        fit = probit_fit(d, X)
        assert fit.iterations == 3
        monkeypatch.setattr(selqr.baselines, "PROBIT_MAX_ITER", fit.iterations)
        capped = probit_fit(d, X)
        assert capped.iterations == fit.iterations
        assert np.array_equal(capped.gamma, fit.gamma)
        monkeypatch.setattr(selqr.baselines, "PROBIT_MAX_ITER", fit.iterations - 1)
        with pytest.raises(NumericalError, match="did not converge"):
            probit_fit(d, X)

    def test_separation_detected(self):
        x = np.linspace(-2, 2, 80)
        d = (x > 0).astype(float)
        X = np.column_stack([np.ones(80), x])
        with pytest.raises(NumericalError, match="separation"):
            probit_fit(d, X)

    def test_constant_response_rejected(self):
        from selqr import InputError
        with pytest.raises(InputError):
            probit_fit(np.ones(20), np.ones((20, 1)))


class TestUncorrected:
    def test_equals_plain_qr_when_fully_observed(self, data_full):
        sol = fit_uncorrected(data_full, 0.5).qsol
        plain = solve(QuantileProblem(Z=data_full.design_z(), y=data_full.y,
                                      w=np.ones(data_full.n), tau=0.5))
        assert_allclose(sol.theta, plain.theta, atol=1e-10)

    def test_only_selected_rows_enter(self, data_mnar):
        sol = fit_uncorrected(data_mnar, 0.5).qsol
        assert np.isfinite(sol.theta).all()


class TestMarIPW:
    def test_probabilities_respect_trim_floor(self, data_mnar, monkeypatch):
        monkeypatch.setattr(selqr.baselines, "TRIM_FLOOR", 0.4)
        omega, _ = mar_weights(data_mnar)
        positive = omega[omega > 0]
        assert (positive <= 1 / 0.4 + 1e-12).all()

    def test_runs_on_mnar_sample(self, data_mnar):
        sol = fit_mar(data_mnar, 0.5).qsol
        assert np.isfinite(sol.theta).all()

    def test_bias_shrinks_with_n_under_mar_truth(self):
        # MAR DGP fitted with a correctly specified index: bias -> 0
        biases = []
        for n, reps in [(500, 30), (2000, 30), (8000, 30)]:
            errs = []
            for rep in range(reps):
                gd = generate(SimulationSpec("A", "M1", n=n, reps=1, seed=77), rep)
                data = gd.data
                sol = solve(QuantileProblem(Z=data.design_z(),
                                            y=data.y_filled(np.nan),
                                            w=mar_weights(data)[0], tau=0.5))
                errs.append(sol.theta - gd.theta_true)
            biases.append(np.abs(np.mean(errs, axis=0)).max())
        assert biases[2] < biases[0] + 0.01   # monotone within MC error
