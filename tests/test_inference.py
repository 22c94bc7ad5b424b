import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

from selqr import (InputError, QuantileProblem, conditional_density,
                   confidence_intervals, covariance, cv_bandwidths,
                   default_bandwidths, solve)
from selqr import inference
from selqr.baselines import mar_weights
from selqr.estimator import (ESTIMATOR_NAMES, fit, fit_semiparametric_iv,
                             fit_uncorrected)
from selqr.inference import BLOCK_ROWS
from selqr.first_stage import (WeightVector, cone_project, estimate_unconstrained,
                               weights)
from selqr.qr import quantile_score
from selqr.simlab import SimulationSpec, generate
from conftest import toy_data
from oracles import conditional_density_reference, cv_bandwidths_reference


class TestDefaultBandwidths:
    def test_formula(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((10000, 4))
        V = (V - V.mean(axis=0)) / V.std(axis=0, ddof=1)   # unit sample sd
        h = default_bandwidths(V)
        assert_allclose(h, 1.06 * 10000 ** (-1 / 8), atol=1e-12)
        # a 1-D sample is one column
        assert np.array_equal(default_bandwidths(V[:, 0]), default_bandwidths(V[:, :1]))

    def test_constant_column_errors(self):
        V = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.raises(InputError, match="degenerate"):
            default_bandwidths(V)

    def test_linear_in_scale(self):
        rng = np.random.default_rng(1)
        V = rng.standard_normal((500, 2))
        assert_allclose(default_bandwidths(2.0 * V), 2.0 * default_bandwidths(V))


class TestConditionalDensity:
    def test_standard_normal_marginal(self):
        # evenly spaced standard normal quantiles: every row's density at 0
        # is the smoothed N(0, 1 + h^2) density there, with no sampling noise
        n = 8000
        y = ndtri((np.arange(n) + 0.5) / n)
        v = np.zeros((n, 0))           # no conditioning variation
        h = default_bandwidths(y.reshape(-1, 1))
        f = conditional_density(y, v, np.zeros((1, n)), h)
        assert np.abs(f - 0.3989).max() < 0.01

    def test_integrates_to_one(self):
        # each row's density, at its own v, integrated over a grid of levels
        rng = np.random.default_rng(4)
        y = rng.standard_normal(400)
        v = (0.5 * y + rng.standard_normal(400)).reshape(-1, 1)
        h = default_bandwidths(np.column_stack([y, v]))
        grid = np.linspace(-8, 8, 161)
        f = conditional_density(y, v, np.repeat(grid[:, None], len(y), axis=1), h)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        integral = trapezoid(f, grid, axis=0)
        assert np.abs(integral - 1.0).max() < 1e-3

    def test_zero_bandwidth_errors(self):
        with pytest.raises(InputError, match="positive"):
            conditional_density(np.arange(5.0), np.zeros((5, 0)),
                                np.zeros((1, 5)), [0.0])


class TestKernelExactness:
    """The kernels against scipy norm.pdf references. The LSCV bandwidths
    match bit for bit. The density applies its kernel constants to row sums,
    so it matches to rounding, with the same exact zeros."""

    @staticmethod
    def sample(seed, d, k):
        # 700 = 10 * 64 + 60 rows leave a short last block; the first 20
        # rows, moved 25 times further out in v, have few or no neighbours
        # there, and levels far off the outcomes drive kernels to underflow
        # and some values to exact zeros
        rng = np.random.default_rng(seed)
        y = 2.0 * rng.standard_normal(700)
        v = rng.standard_normal((700, d))
        h = default_bandwidths(np.column_stack([y, v]))
        v[:20] *= 25.0
        levels = y + 6.0 * rng.standard_normal((k, 700))
        levels[:, 20:30] += 200.0
        return y, v, levels, h

    @staticmethod
    def assert_matches_oracle(f, f_ref):
        assert np.array_equal(f == 0, f_ref == 0)
        assert_allclose(f, f_ref, rtol=1e-12, atol=0)

    @staticmethod
    def oracle(y, v, level, h):
        return conditional_density_reference(y, v, level, v, h, chunk=128)[0]

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_conditional_density_matches_oracle(self, d):
        y, v, levels, h = self.sample(20 + d, d, 1)
        f = conditional_density(y, v, levels, h)
        self.assert_matches_oracle(f[0], self.oracle(y, v, levels[0], h))
        assert (f == 0).any() and not (f == 0).all()

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_conditional_density_levels_match_separate_calls(self, d):
        # k outcome vectors give exactly the rows of k one-level calls, and
        # the oracle's rows to rounding
        y, v, levels, h = self.sample(40 + d, d, 3)
        f = conditional_density(y, v, levels, h)
        assert f.shape == (3, 700)
        for level, f_level in zip(levels, f):
            assert np.array_equal(f_level, conditional_density(y, v, level[None], h)[0])
            self.assert_matches_oracle(f_level, self.oracle(y, v, level, h))
        # v of half the rows and twice the columns has n x D entries
        for bad_v, bad_levels in ((v, levels[0]), (v, levels[None]),
                                  (v, levels[:, 1:]), (v.reshape(350, 2 * d), levels)):
            with pytest.raises(InputError, match="shape"):
                conditional_density(y, bad_v, bad_levels, h)

    def test_conditional_density_does_not_depend_on_block_rows(self, monkeypatch):
        y, v, levels, h = self.sample(50, 2, 3)
        outputs = []
        for rows in (1, 7, 64):
            monkeypatch.setattr(inference, "BLOCK_ROWS", rows)
            outputs.append(conditional_density(y, v, levels, h))
        for f in outputs[1:]:
            assert np.array_equal(f, outputs[0])
        assert (outputs[0] == 0).any()

    def test_cv_bandwidths_match_full_array_reference(self):
        rng = np.random.default_rng(30)
        m = 2 * BLOCK_ROWS + 37        # a short last block
        inputs = [rng.standard_normal((m, 3)) * [1.0, 0.2, 5.0]]
        for n_dims in (1, 2, 3, 4):
            V = rng.standard_normal((m, n_dims)) * [30.0, 1.0, 0.2, 5.0][:n_dims]
            tied = V.copy()
            tied[:, -1] = rng.integers(0, 4, m)    # many pairs at distance zero
            inputs += [V, tied]
        for V in inputs:
            h = cv_bandwidths(V)
            assert np.array_equal(h, cv_bandwidths_reference(V))
            if V.shape[1] == 1:    # a 1-D sample is one column
                assert np.array_equal(cv_bandwidths(V[:, 0]), h)

    def test_cv_bandwidths_match_reference_when_subsampling(self, monkeypatch):
        rng = np.random.default_rng(31)
        V = rng.standard_normal((400, 2))
        V[:, 1] += 0.5 * V[:, 0]
        inputs = [V]
        for n_dims in (1, 2, 3, 4):
            V = rng.standard_normal((400, n_dims))
            V[::3, 0] = 0.25           # ties within the subsample
            inputs.append(V)
        mult = np.linspace(0.2, 3.0, 15)
        monkeypatch.setattr(inference, "CV_MULTIPLIERS", mult)
        monkeypatch.setattr(inference, "CV_MAX_ROWS", 150)
        for V in inputs:
            assert np.array_equal(cv_bandwidths(V),
                                  cv_bandwidths_reference(V, mult, max_rows=150))

    def test_cv_bandwidths_memory_is_not_quadratic(self, monkeypatch):
        # one m x m x d float array at m = 2000, d = 3 is 96 MB; the
        # docstring's bound is 2 * BLOCK_ROWS * m floats
        m, d = 2000, 3
        V = np.random.default_rng(32).standard_normal((m, d))
        monkeypatch.setattr(inference, "CV_MULTIPLIERS", np.array([1.0]))
        tracemalloc.start()
        try:
            cv_bandwidths(V)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert peak < 1.25 * 2 * BLOCK_ROWS * m * 8

    def test_conditional_density_memory_is_two_blocks(self):
        # two BLOCK_ROWS x n buffers, whatever the number of outcome vectors
        n, d = 4000, 2
        rng = np.random.default_rng(33)
        y, v = rng.standard_normal(n), rng.standard_normal((n, d))
        h = default_bandwidths(np.column_stack([y, v]))
        for levels in (y[None], rng.standard_normal((3, n))):
            tracemalloc.start()
            try:
                conditional_density(y, v, levels, h)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * 2 * BLOCK_ROWS * n * 8


@pytest.mark.parametrize("bandwidth_mode", ["rot", "cv"])
def test_reports_match_the_scipy_kernel_oracle(dataset_m2, bandwidth_mode,
                                               monkeypatch):
    # the density's rounding reaches sigma, its se and its minimum
    # eigenvalue, and nothing else
    def oracle(y, v, levels, bandwidths):
        return np.array([conditional_density_reference(y, v, level, v, bandwidths)[0]
                         for level in levels])

    data, taus = dataset_m2.data, [0.25, 0.5, 0.75]
    shipped = [fit(data, taus, name, bandwidth_mode=bandwidth_mode)
               for name in ESTIMATOR_NAMES]
    monkeypatch.setattr(inference, "conditional_density", oracle)
    for fits in shipped:
        for qf, qo in zip(fits, fit(data, taus, fits[0].estimator,
                                     bandwidth_mode=bandwidth_mode)):
            assert np.array_equal(qf.theta, qo.theta)
            assert qf.qsol.active_set == qo.qsol.active_set
            min_eig = qo.diagnostics["min_eigenvalue"]
            assert qf.diagnostics == {**qo.diagnostics, "min_eigenvalue":
                                      pytest.approx(min_eig, rel=1e-12, abs=0)}
            assert_allclose(qf.se, qo.se, rtol=1e-12, atol=0)
            assert_allclose(qf.sigma, qo.sigma, rtol=1e-12,
                            atol=1e-12 * np.abs(qo.sigma).max())


class TestCovariance:
    def test_reduces_to_weights_known_sandwich(self, data_full):
        # oracle: direct formula evaluation sharing the same density values
        data = data_full
        Z = data.design_z()
        omega = np.ones(data.n)
        qsol = solve(QuantileProblem(Z=Z, y=data.y, w=omega, tau=0.5))
        sigma, _ = covariance([qsol], data, WeightVector(omega, data.selected))[0]

        cond = Z[:, 1:]                 # intercept and omega dims are constant
        kd = np.column_stack([data.y, cond])
        h = default_bandwidths(kd)
        f = conditional_density(data.y, cond, (Z @ qsol.theta)[None], h)[0]
        psi = quantile_score(data.y - Z @ qsol.theta, 0.5)
        M1 = (Z * f[:, None]).T @ Z / data.n
        S = (Z * psi[:, None]).T @ (Z * psi[:, None]) / data.n
        direct = np.linalg.inv(M1) @ S @ np.linalg.inv(M1)
        assert_allclose(sigma, 0.5 * (direct + direct.T), atol=1e-8)

    def test_se_ignores_rounding_sign_at_interpolated_rows(self, data_mnar):
        # the rows the LP interpolates score tau whichever side of zero
        # their rounded residuals fall
        data = data_mnar
        omega, _ = mar_weights(data)
        qsol = solve(QuantileProblem(Z=data.design_z(), y=data.y_filled(np.nan),
                                     w=omega, tau=0.25))
        active = list(qsol.active_set)
        theta = qsol.theta.copy()
        theta[0] += 8 * np.spacing(np.abs(data.y[active]).max())
        resid = (data.y - data.design_z() @ theta)[active]
        assert (resid < 0).all() and (resid > -1e-12).all()
        nudged = dataclasses.replace(qsol, theta=theta)
        fs = cone_project(estimate_unconstrained(data), data)
        for wv in (WeightVector(omega, data.selected),
                   dataclasses.replace(weights(fs, data), omega=omega)):
            se, nudged_se = (np.sqrt(np.diag(covariance([q], data, wv)[0][0]) / data.n)
                             for q in (qsol, nudged))
            assert_allclose(nudged_se, se, rtol=1e-10)

    def test_sigma_symmetric_psd(self, dataset_m2):
        # sigma is a Gram matrix: symmetric and PSD with no repair, and se
        # is the root of its diagonal over n exactly, for every estimator
        data = dataset_m2.data
        for name in ESTIMATOR_NAMES:
            for qf in fit(data, [0.25, 0.5, 0.75], name):
                assert np.array_equal(qf.sigma, qf.sigma.T), name
                assert np.linalg.eigvalsh(qf.sigma).min() >= 0, name
                assert np.array_equal(qf.se, np.sqrt(np.diag(qf.sigma) / data.n)), name

    def test_psd_before_clipping(self, dataset_m2):
        data = dataset_m2.data
        fit = cone_project(estimate_unconstrained(data), data)
        wv = weights(fit, data)
        qsol = solve(QuantileProblem(Z=data.design_z(), y=data.y_filled(np.nan),
                                     w=wv.omega, tau=0.5))
        _, diagnostics = covariance([qsol], data, wv)[0]
        assert diagnostics["min_eigenvalue"] >= -1e-10

    def test_correction_vanishes_with_perfect_first_stage(self, data_full):
        # with everyone selected the first-stage residual is identically zero
        data = data_full
        fit = cone_project(estimate_unconstrained(data), data)
        assert np.abs(1.0 - fit.designs.phi @ fit.beta_u).max() < 1e-8
        omega = np.ones(data.n)
        qsol = solve(QuantileProblem(Z=data.design_z(), y=data.y,
                                     w=omega, tau=0.5))
        with_corr, _ = covariance([qsol], data,
                                  dataclasses.replace(weights(fit, data), omega=omega))[0]
        without, _ = covariance([qsol], data, WeightVector(omega, data.selected))[0]
        assert_allclose(with_corr, without, atol=1e-8)

    def test_ci_length_root_n_rate(self):
        lengths = []
        ns = [500, 2000, 8000]
        for n in ns:
            per_rep = []
            for rep in range(3):
                gd = generate(SimulationSpec("C", "M2", n=n, reps=1, seed=99), rep)
                qf = fit_semiparametric_iv(gd.data, 0.5)
                per_rep.append(qf.ci[:, 1] - qf.ci[:, 0])
            lengths.append(np.mean(per_rep))
        slope = np.polyfit(np.log(ns), np.log(lengths), 1)[0]
        assert abs(slope - (-0.5)) < 0.1

    def test_cv_hook_returns_positive_bandwidths(self):
        rng = np.random.default_rng(7)
        V = rng.standard_normal((300, 2))
        h = cv_bandwidths(V)
        assert (h > 0).all() and h.shape == (2,)

    def test_cv_bandwidth_mode_end_to_end(self):
        data = toy_data(n=300, seed=6)
        qf = fit_semiparametric_iv(data, 0.5, bandwidth_mode="cv")
        assert (qf.se > 0).all()
        assert (qf.ci[:, 0] < qf.theta).all() and (qf.theta < qf.ci[:, 1]).all()


class TestConfidenceIntervals:
    def test_degenerate_variance(self):
        ci = confidence_intervals([2.0], [[0.0]], n=100, level=0.95)
        assert_allclose(ci, [[2.0, 2.0]])

    def test_unit_standard_error(self):
        from scipy.stats import norm
        ci = confidence_intervals([0.0], [[100.0]], n=100, level=0.95)
        assert_allclose(ci[0, 1], norm.ppf(0.975), atol=1e-12)

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_z_is_scipy_stats_norm_ppf_bit_for_bit(self, level):
        from scipy.stats import norm
        ci = confidence_intervals([0.0], [[100.0]], n=100, level=level)
        assert ci[0, 1] == norm.ppf(1.0 - (1.0 - level) / 2.0)

    def test_wider_level_contains_narrower(self):
        ci95 = confidence_intervals([1.0], [[4.0]], n=50, level=0.95)
        ci99 = confidence_intervals([1.0], [[4.0]], n=50, level=0.99)
        assert ci99[0, 0] < ci95[0, 0] < ci95[0, 1] < ci99[0, 1]

    def test_bad_level(self):
        with pytest.raises(InputError):
            confidence_intervals([0.0], [[1.0]], n=10, level=1.5)

    @pytest.mark.parametrize("sigma", [[1.0, 4.0], [[1.0, 0.0, 0.0], [0.0, 4.0, 0.0]]],
                             ids=["variance_vector", "wide"])
    def test_sigma_must_be_square_in_the_coefficients(self, sigma):
        # a vector of variances once gave both coefficients the first one
        with pytest.raises(InputError, match="shape"):
            confidence_intervals([0.0, 1.0], sigma, n=1, level=0.95)

    def test_negative_variance_errors(self):
        with pytest.raises(InputError, match="negative variance"):
            confidence_intervals([0.0, 1.0], [[1.0, 0.0], [0.0, -1e-300]], n=10,
                                 level=0.95)


def test_near_constant_weight_dimension_dropped(data_mnar):
    # omega is constant on the selected rows, so it is dropped with the intercept
    qf = fit_uncorrected(data_mnar, 0.5)
    assert qf.diagnostics["conditioning_dims_dropped"] == 2
