import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from selqr import (InputError, NumericalError, SimulationSpec, generate, run,
                   simlab)
from selqr.estimator import QuantileFit
from selqr.simlab import _draw_errors, _mixture_quantile
from oracles import errors_reference, mixture_quantile_reference


class TestGenerate:
    def test_deterministic_per_seed_and_index(self):
        spec = SimulationSpec("C", "M2", n=500, reps=2, seed=42)
        a = generate(spec, 1)
        b = generate(spec, 1)
        assert (a.data.d == b.data.d).all()
        assert_allclose(a.y_star, b.y_star, atol=0, rtol=0)
        assert_allclose(a.data.w, b.data.w, atol=0, rtol=0)
        c = generate(spec, 0)
        assert not np.array_equal(a.y_star, c.y_star)

    def test_median_recentering_is_zero_for_symmetric_errors(self):
        assert abs(_mixture_quantile(0.5)) < 1e-9
        for setting in "ABCD":
            spec = SimulationSpec(setting, "M1", n=200000, reps=1, seed=1)
            gd = generate(spec, 0)
            resid = gd.y_star - (1.0 + gd.data.w[:, 0] + 2.0 * gd.data.x[:, 0])
            assert abs(np.median(resid)) < 0.02

    @pytest.mark.parametrize("tau", [0.05, 0.25, 0.5, 0.75, 0.9])
    def test_recentring_matches_scipy_stats_bit_for_bit(self, tau):
        assert _mixture_quantile(tau) == mixture_quantile_reference(tau)
        x = np.random.default_rng(4).standard_normal(300)
        for setting in "ABCDE":
            got = _draw_errors(setting, tau, x, np.random.default_rng(9))
            want = errors_reference(setting, tau, x, np.random.default_rng(9))
            assert np.array_equal(got, want), setting

    def test_quantile_recentering_off_median(self):
        spec = SimulationSpec("B", "M1", n=400000, reps=1, tau=0.25, seed=3)
        gd = generate(spec, 0)
        resid = gd.y_star - (1.0 + gd.data.w[:, 0] + 2.0 * gd.data.x[:, 0])
        assert abs(np.quantile(resid, 0.25)) < 0.02

    def test_heteroskedastic_recentering_is_conditional(self):
        spec = SimulationSpec("E", "M1", n=400000, reps=1, tau=0.75, seed=4)
        gd = generate(spec, 0)
        resid = gd.y_star - (1.0 + gd.data.w[:, 0] + 2.0 * gd.data.x[:, 0])
        x = gd.data.x[:, 0]
        for lo, hi in [(-1, 0.5), (0.5, 1.5), (1.5, 4)]:
            band = (x > lo) & (x <= hi)
            assert abs(np.quantile(resid[band], 0.75)) < 0.03

    def test_selected_fraction_near_65_percent(self):
        spec = SimulationSpec("C", "M2", n=10000, reps=1, seed=9)
        fractions = [generate(spec, r).data.n_selected / spec.n for r in range(10)]
        assert abs(np.mean(fractions) - 0.65) < 0.03

    def test_wx_moments(self):
        gd = generate(SimulationSpec("A", "M1", n=200000, reps=1, seed=2), 0)
        w, x = gd.data.w[:, 0], gd.data.x[:, 0]
        assert_allclose([w.mean(), x.mean()], [2.0, 1.0], atol=0.02)
        assert_allclose(np.cov(w, x), [[1.0, 0.5], [0.5, 1.0]], atol=0.02)

    def test_invalid_spec(self):
        with pytest.raises(InputError):
            SimulationSpec("F", "M1", n=100, reps=1)
        with pytest.raises(InputError):
            SimulationSpec("A", "M9", n=100, reps=1)
        with pytest.raises(InputError):
            SimulationSpec("A", "M1", n=100, reps=0)

    def test_repeated_estimator_is_an_input_error(self):
        with pytest.raises(InputError, match=r"repeated estimator\(s\) \['mar'\]"):
            SimulationSpec("C", "M2", n=100, reps=1, estimators=("mar", "mar"))


_TRUTH = generate(SimulationSpec("C", "M2", n=10, reps=1), 0).theta_true


def _oracle_fit(data, tau, name):
    """Stand-in for estimator.fit: theta is the truth (Z order), inside a
    2e-9-wide interval."""
    ci = np.column_stack([_TRUTH - 1e-9, _TRUTH + 1e-9])
    return QuantileFit(tau=tau, estimator=name, theta=_TRUTH.copy(),
                       sigma=np.zeros((3, 3)), se=np.zeros(3), ci=ci,
                       labels=("intercept", "x0", "w0"))


def _failing_first(failures):
    """Stand-in for estimator.fit that raises on its first `failures` calls
    and then returns the truth."""
    calls = {"n": 0}
    def fit(data, tau, name):
        calls["n"] += 1
        if calls["n"] <= failures:
            raise NumericalError("bad draw")
        return _oracle_fit(data, tau, name)
    return fit


class TestRun:
    def test_oracle_stub_gives_zero_bias_full_coverage(self, monkeypatch):
        # the table's truth is generate's theta_true, in report order
        monkeypatch.setattr(simlab.est, "fit", _oracle_fit)
        spec = SimulationSpec("C", "M2", n=50, reps=5, seed=1,
                              estimators=("uncorrected",))
        table = run(spec)
        assert_allclose(table.metrics["uncorrected"]["bias"], 0.0, atol=1e-12)
        assert_allclose(table.metrics["uncorrected"]["coverage"], 1.0)
        assert_allclose(table.metrics["uncorrected"]["rmse"], 0.0, atol=1e-12)

    def test_rmse_identity_on_stored_draws(self):
        spec = SimulationSpec("C", "M2", n=300, reps=8, seed=3,
                              estimators=("uncorrected", "mar"))
        table = run(spec)
        for name in spec.estimators:
            theta = table.replications[name]["theta"]
            err = theta - table.theta_true
            bias = err.mean(axis=0)
            var = err.var(axis=0)
            rmse = table.metrics[name]["rmse"]
            assert_allclose(rmse ** 2, bias ** 2 + var, atol=1e-10)

    def test_aggregates_invariant_to_replication_order(self):
        spec = SimulationSpec("C", "M2", n=300, reps=8, seed=3,
                              estimators=("uncorrected",))
        table = run(spec)
        theta = table.replications["uncorrected"]["theta"]
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(theta))
        err = theta[perm] - table.theta_true
        assert_allclose(err.mean(axis=0), table.metrics["uncorrected"]["bias"],
                        atol=1e-12)

    def test_parallel_matches_serial(self):
        spec = SimulationSpec("C", "M2", n=300, reps=6, seed=5)
        t1 = run(spec, n_jobs=1)
        t2 = run(spec, n_jobs=2)
        assert json.dumps(t1.to_dict(), sort_keys=True) == \
               json.dumps(t2.to_dict(), sort_keys=True)

    def test_workers_capped_at_replications(self, monkeypatch):
        # a serial stand-in replaces the pool, so no process starts
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(simlab, "ProcessPoolExecutor", SerialPool)
        spec = SimulationSpec("C", "M2", n=300, reps=3, seed=5,
                              estimators=("uncorrected",))
        table = run(spec, n_jobs=8)
        assert started == [3]
        assert json.dumps(table.to_dict(), sort_keys=True) == \
               json.dumps(run(spec).to_dict(), sort_keys=True)
        run(dataclasses.replace(spec, reps=1), n_jobs=8)   # runs serially
        assert started == [3]

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_jobs_below_one_is_an_input_error(self, n_jobs):
        spec = SimulationSpec("C", "M2", n=50, reps=1, estimators=("uncorrected",))
        with pytest.raises(InputError, match="jobs must be >= 1"):
            run(spec, n_jobs=n_jobs)

    def test_failed_replication_excluded_and_capped(self, monkeypatch):
        def flaky(data, tau, name):
            if abs(float(data.w[0, 0]) * 1e6) % 7 < 3.5:   # fails often
                raise NumericalError("synthetic failure")
            return _oracle_fit(data, tau, name)
        monkeypatch.setattr(simlab.est, "fit", flaky)
        spec = SimulationSpec("C", "M2", n=50, reps=10, seed=2,
                              estimators=("uncorrected",))
        with pytest.raises(NumericalError, match="replications failed"):
            run(spec)

    @pytest.mark.parametrize("reps, failures", [(4, 1), (1, 1), (3, 3)])
    def test_failures_past_two_percent_fail_the_run(self, monkeypatch, reps,
                                                    failures):
        # below 50 replications one failure is more than 2 %; an all-failed
        # run fails the same way
        monkeypatch.setattr(simlab.est, "fit", _failing_first(failures))
        spec = SimulationSpec("C", "M2", n=50, reps=reps, seed=2,
                              estimators=("uncorrected",))
        with pytest.raises(NumericalError,
                           match=rf"{failures} of {reps} replications failed"):
            run(spec)

    def test_input_error_excludes_only_its_replication(self, monkeypatch):
        # a draw can make an input degenerate; the run goes on without it
        bad_w = generate(SimulationSpec("C", "M2", n=50, reps=60, seed=2), 7).data.w
        def degenerate_on_7(data, tau, name):
            if np.array_equal(data.w, bad_w):
                raise InputError("probit response is constant")
            return _oracle_fit(data, tau, name)
        monkeypatch.setattr(simlab.est, "fit", degenerate_on_7)
        spec = SimulationSpec("C", "M2", n=50, reps=60, seed=2,
                              estimators=("uncorrected",))
        table = run(spec)
        assert table.excluded == ((7, "uncorrected: probit response is constant"),)
        assert len(table.replications["uncorrected"]["theta"]) == 59

    def test_single_failure_recorded(self, monkeypatch):
        monkeypatch.setattr(simlab.est, "fit", _failing_first(1))
        spec = SimulationSpec("C", "M2", n=50, reps=60, seed=2,
                              estimators=("uncorrected",))
        table = run(spec)
        assert len(table.excluded) == 1
        assert table.excluded[0][0] == 0
        assert len(table.replications["uncorrected"]["theta"]) == 59
