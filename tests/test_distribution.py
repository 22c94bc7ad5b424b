import numpy as np
import pytest
from numpy.testing import assert_allclose

from selqr import (CorrectedCDF, InputError, QuantileProblem, SimulationSpec,
                   corrected_cdf, generate, solve)
from selqr.first_stage import estimate_unconstrained, weights


def ecdf(y_sorted, at):
    return np.searchsorted(np.sort(y_sorted), at, side="right") / len(y_sorted)


class TestCorrectedCDF:
    def test_unit_weights_equal_ecdf_exactly(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(200)
        cdf = CorrectedCDF.from_values(y, np.ones_like(y))
        grid = np.concatenate([y, rng.standard_normal(50)])
        assert (cdf.evaluate(grid) == ecdf(y, grid)).all()

    def test_normalization_and_bounds(self, dataset_m2):
        data = dataset_m2.data
        fit = estimate_unconstrained(data)
        cdf = corrected_cdf(fit, data)
        assert_allclose(cdf.cum_weights[-1], 1.0)
        assert cdf.evaluate(data.y[data.selected].max()) == 1.0
        assert cdf.evaluate(-1e9) == 0.0
        vals = cdf.evaluate(np.linspace(-10, 15, 300))
        assert (np.diff(vals) >= 0).all()
        assert ((0 <= vals) & (vals <= 1)).all()

    def test_weights_match_quantile_stage(self, dataset_m2):
        data = dataset_m2.data
        fit = estimate_unconstrained(data)
        omega = weights(fit, data).omega[data.selected]
        cdf = corrected_cdf(fit, data)
        jumps = np.diff(np.concatenate([[0.0], cdf.cum_weights]))
        assert_allclose(jumps.sum(), 1.0)
        assert_allclose(sorted(jumps), sorted(omega / omega.sum()), atol=1e-12)

    def test_right_continuity(self):
        cdf = CorrectedCDF.from_values(np.array([1.0, 2.0, 3.0]), np.ones(3))
        assert cdf.evaluate(2.0) == pytest.approx(2 / 3)
        assert cdf.evaluate(2.0 - 1e-12) == pytest.approx(1 / 3)

    def test_empty_errors(self):
        with pytest.raises(InputError):
            CorrectedCDF.from_values(np.array([]), np.array([]))

    @pytest.mark.parametrize("y, g", [
        ([1.0, 2.0, 3.0], [1.0] * 5),
        ([1.0, 2.0, 3.0], [1.0, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, np.nan, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, np.inf, 1.0]),
        ([1.0, np.nan, 3.0], [1.0] * 3),
        ([1.0, -np.inf, 3.0], [1.0] * 3),
    ], ids=["more-weights", "fewer-weights", "nan-weight", "inf-weight",
            "nan-outcome", "inf-outcome"])
    def test_malformed_inputs_error(self, y, g):
        with pytest.raises(InputError):
            CorrectedCDF.from_values(np.array(y), np.array(g))


class TestQuantileFromCDF:
    def test_uniform_median(self):
        cdf = CorrectedCDF.from_values(np.array([1.0, 2.0, 3.0]), np.ones(3))
        assert cdf.quantile(0.5) == 2.0

    def test_tau_just_above_step_moves_to_next_support_point(self):
        cdf = CorrectedCDF.from_values(np.array([1.0, 2.0, 3.0]), np.ones(3))
        assert cdf.quantile(1 / 3 + 1e-9) == 2.0
        assert cdf.quantile(2 / 3 + 1e-9) == 3.0

    def test_matches_weighted_qr_within_one_gap(self):
        rng = np.random.default_rng(8)
        y = np.sort(rng.standard_normal(60))
        g = rng.uniform(1, 3, 60)
        cdf = CorrectedCDF.from_values(y, g)
        for tau in (0.25, 0.5, 0.8):
            q = cdf.quantile(tau)
            theta = solve(QuantileProblem(Z=np.ones((60, 1)), y=y, w=g,
                                          tau=tau)).theta[0]
            i = int(np.searchsorted(y, q))
            lo = y[max(i - 1, 0)]
            hi = y[min(i + 1, len(y) - 1)]
            assert lo - 1e-12 <= theta <= hi + 1e-12


def test_corrected_cdf_beats_ecdf_under_mnar():
    # scaled-down version of the acceptance check (full run: 100 reps)
    wins = 0
    for rep in range(10):
        gd = generate(SimulationSpec("C", "M2", n=20000, reps=1, seed=2024), rep)
        data = gd.data
        fit = estimate_unconstrained(data)
        cdf = corrected_cdf(fit, data)
        latent = np.sort(gd.y_star)
        grid = cdf.support
        f_latent = np.searchsorted(latent, grid, side="right") / len(latent)
        d_corr = np.abs(cdf.evaluate(grid) - f_latent).max()
        d_ecdf = np.abs(ecdf(data.y[data.selected], grid) - f_latent).max()
        wins += d_corr < d_ecdf
    assert wins >= 9
