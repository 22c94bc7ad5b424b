import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from selqr import (InputError, NumericalError, ObservationSet, SimulationSpec,
                   baselines, first_stage, fit, fit_semiparametric_iv, generate,
                   inference)
from selqr.estimator import CI_LEVEL, ESTIMATOR_NAMES
from conftest import toy_data


def mnar_sample(rng, n, d_x=1, d_w=1):
    w = rng.normal(2, 1, (n, d_w))
    x = rng.normal(1, 1, (n, d_x))
    ystar = 1.0 + w.sum(axis=1) + 2.0 * x.sum(axis=1) + rng.standard_normal(n)
    p = 1.0 / (1.0 + np.exp(2.0 - 0.5 * ystar))
    d = (rng.random(n) < p).astype(int)
    return ObservationSet(d=d, y=np.where(d == 1, ystar, np.nan), w=w, x=x), ystar


def envelope_sample(case):
    base = toy_data(n=400, seed=3)
    d, y, w, x = base.d, base.y, base.w, base.x
    if case == "no_rows_selected":
        d, y = np.zeros(base.n, dtype=int), np.full(base.n, np.nan)
    elif case == "all_rows_selected":
        return toy_data(n=400, seed=3, all_selected=True)
    elif case == "constant_covariate":
        x = np.ones_like(x)
    elif case == "constant_instrument":
        w = np.ones_like(w)
    elif case == "tied_outcomes":
        y = np.round(y)
    elif case == "ten_covariates":
        x = np.random.default_rng(0).standard_normal((base.n, 10))
        y = y + x.sum(axis=1)
    elif case == "repeated_column":
        w = np.column_stack([w, x[:, 0]])
    elif case == "n_at_most_k":
        return generate(SimulationSpec("C", "M2", n=6, reps=1, seed=5), 0).data
    return ObservationSet(d=d, y=y, w=w, x=x)


# what each estimator gives, in ESTIMATOR_NAMES order
ENVELOPE = {
    "no_rows_selected": (InputError, InputError, InputError),
    "all_rows_selected": ("finite", "finite", "finite"),
    "constant_covariate": (InputError, InputError, InputError),
    "constant_instrument": (InputError, InputError, InputError),
    "tied_outcomes": ("finite", "finite", "finite"),
    "ten_covariates": ("finite", "finite", "finite"),
    "repeated_column": (NumericalError, NumericalError, NumericalError),   # w1 = x0
    "n_at_most_k": ("finite", NumericalError, InputError),     # n = 6 = K
}


@pytest.mark.parametrize("case", list(ENVELOPE))
@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_failure_envelope(case, name):
    # a degenerate sample gives a finite fit or one of the two error types
    # the CLI maps to exit codes, never another exception
    want = ENVELOPE[case][ESTIMATOR_NAMES.index(name)]
    data = envelope_sample(case)
    if want == "finite":
        qf = fit(data, 0.5, name)
        assert np.isfinite(qf.theta).all() and np.isfinite(qf.se).all()
    else:
        with pytest.raises((InputError, NumericalError)) as exc:
            fit(data, 0.5, name)
        assert type(exc.value) is want


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
@pytest.mark.parametrize("case, label", [("constant_covariate", "x0"),
                                         ("constant_instrument", "w0")])
def test_constant_column_is_named(case, label, name):
    with pytest.raises(InputError, match=f"column {label} is constant"):
        fit(envelope_sample(case), 0.5, name)


def test_mar_on_fully_observed_sample_is_the_complete_case_fit():
    data = envelope_sample("all_rows_selected")
    mar = fit(data, [0.25, 0.5], "mar")
    for qm, qu in zip(mar, fit(data, [0.25, 0.5], "uncorrected")):
        assert np.array_equal(qm.theta, qu.theta)
        assert np.array_equal(qm.se, qu.se)
        assert qm.diagnostics["probit_iterations"] == 0


class TestFitShapes:
    def test_no_covariates(self):
        data, _ = mnar_sample(np.random.default_rng(1), 2000, d_x=0)
        qf = fit_semiparametric_iv(data, 0.5)
        assert qf.labels == ("intercept", "w0")
        assert qf.theta.shape == (2,) and qf.sigma.shape == (2, 2)
        assert_allclose(qf.theta, [1.0, 1.0], atol=0.35)

    def test_two_instruments(self):
        data, _ = mnar_sample(np.random.default_rng(2), 2000, d_w=2)
        qf = fit_semiparametric_iv(data, 0.5)
        assert qf.labels == ("intercept", "x0", "w0", "w1")
        assert qf.theta.shape == (4,)
        assert (qf.ci[:, 0] < qf.ci[:, 1]).all()

    def test_intervals_are_confidence_intervals_at_ci_level(self, data_mnar):
        # the one level, applied once; any other comes from theta and sigma
        assert CI_LEVEL == 0.95
        for name in ("uncorrected", "mar", "semiparametric_iv"):
            qf = fit(data_mnar, 0.5, estimator=name)
            assert np.array_equal(qf.ci, inference.confidence_intervals(
                qf.theta, qf.sigma, data_mnar.n, CI_LEVEL))

    def test_dispatcher(self, data_mnar):
        for name in ("uncorrected", "mar", "semiparametric_iv"):
            qf = fit(data_mnar, 0.5, estimator=name)
            assert qf.estimator == name
        with pytest.raises(InputError, match="unknown estimator"):
            fit(data_mnar, 0.5, estimator="ipw")

    def test_diagnostics_carry_first_stage_info(self, data_mnar):
        qf = fit_semiparametric_iv(data_mnar, 0.5)
        diag = qf.diagnostics
        assert diag["moment_residual_max"] >= 0
        assert diag["n_selected"] == data_mnar.n_selected

    def test_diagnostics_carry_covariance_facts(self, data_mnar):
        # the conditioning data is (omega, Z): the intercept column is always
        # dropped, and so is omega when it is constant on the selected rows,
        # as the selection dummies are
        data = data_mnar
        for name, dropped in (("uncorrected", 2), ("mar", 1),
                              ("semiparametric_iv", 1)):
            qf = fit(data, 0.5, estimator=name)
            diag = qf.diagnostics
            assert diag["conditioning_dims_dropped"] == dropped
            assert "density_floored" not in diag
            assert isinstance(diag["min_eigenvalue"], float)
            assert diag["min_eigenvalue"] == pytest.approx(
                np.linalg.eigvalsh(qf.sigma).min(), rel=1e-8)


def m2_draw(seed):
    return generate(SimulationSpec("C", "M2", n=600, reps=1, seed=seed), 0).data


def assert_permutation_invariant(data, perm):
    permuted = ObservationSet(d=data.d[perm], y=data.y[perm], w=data.w[perm],
                              x=data.x[perm])
    for name in ("uncorrected", "mar", "semiparametric_iv"):
        for tau in (0.25, 0.5):
            qf, qp = fit(data, tau, name), fit(permuted, tau, name)
            assert_allclose(qp.theta, qf.theta, rtol=1e-10)
            assert_allclose(qp.se, qf.se, rtol=1e-10)
            assert sorted(perm[list(qp.qsol.active_set)]) == sorted(qf.qsol.active_set)


def test_row_permutation_invariance(dataset_m2):
    data = dataset_m2.data
    assert_permutation_invariant(data, np.random.default_rng(0).permutation(data.n))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), perm_seed=st.integers(0, 2**32 - 1))
def test_row_permutation_invariance_on_random_draws(seed, perm_seed):
    data = m2_draw(seed)
    assert_permutation_invariant(data, np.random.default_rng(perm_seed).permutation(data.n))


def assert_affine_equivariant(data, a, b, bandwidth_mode="rot"):
    # y -> a + b y with b > 0 leaves the weights alone (the outcome spline's
    # knots move with y), shifts the intercept by a and scales every
    # coefficient by b; the density of the outcome scales by 1/b, so every
    # standard error scales by b
    moved = ObservationSet(d=data.d, y=a + b * data.y, w=data.w, x=data.x)
    shift = np.zeros(data.design_z().shape[1])
    shift[data.z_labels().index("intercept")] = a
    for name in ("uncorrected", "mar", "semiparametric_iv"):
        for tau in (0.25, 0.5):
            qf = fit(data, tau, name, bandwidth_mode=bandwidth_mode)
            qm = fit(moved, tau, name, bandwidth_mode=bandwidth_mode)
            assert_allclose(qm.theta, b * qf.theta + shift, rtol=1e-10)
            assert_allclose(qm.se, b * qf.se, rtol=1e-9)
            assert sorted(qm.qsol.active_set) == sorted(qf.qsol.active_set)


@pytest.mark.parametrize("a, b", [(3.0, 2.0), (-40.0, 0.01), (1e4, 250.0)])
@pytest.mark.parametrize("bandwidth_mode", ["rot", "cv"])
def test_affine_equivariance_in_y(dataset_m2, bandwidth_mode, a, b):
    assert_affine_equivariant(dataset_m2.data, a, b, bandwidth_mode)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-100.0, 100.0),
       log_b=st.floats(-2.0, 2.0))
def test_affine_equivariance_in_y_on_random_draws(seed, a, log_b):
    assert_affine_equivariant(m2_draw(seed), a, 10.0 ** log_b)


@pytest.mark.parametrize("bandwidth_mode", ["rot", "cv"])
def test_se_invariant_to_covariate_units(dataset_m2, bandwidth_mode):
    # measuring covariates in other units, x -> s x and w -> s w, leaves the
    # weights, the bandwidth-scaled kernel distances and the constant
    # conditioning columns alone; it scales those columns' coefficients, and
    # their standard errors, by 1 / s
    data = dataset_m2.data
    extra = np.random.default_rng(0).standard_normal((data.n, 8))
    wide = ObservationSet(d=data.d, y=data.y, w=data.w,
                          x=np.column_stack([data.x, extra]))
    cases = [(data, s, s, ESTIMATOR_NAMES) for s in (1e-12, 1e-8, 1e8, 1e12)]
    # eight more covariates in natural units: a standard deviation of 30
    cases.append((wide, 1.0, np.r_[np.ones(data.x.shape[1]), np.full(8, 30.0)],
                  ("uncorrected", "semiparametric_iv")))
    taus = [0.25, 0.5, 0.75]
    for base, s_w, s_x, names in cases:
        moved = ObservationSet(d=base.d, y=base.y, w=s_w * base.w, x=s_x * base.x)
        scale = np.r_[1.0, np.broadcast_to(s_x, base.x.shape[1]),
                      np.broadcast_to(s_w, base.w.shape[1])]
        assert base.z_labels()[0] == "intercept" and len(scale) == len(base.z_labels())
        for name in names:
            for qf, qm in zip(fit(base, taus, name, bandwidth_mode=bandwidth_mode),
                              fit(moved, taus, name, bandwidth_mode=bandwidth_mode)):
                assert_allclose(qm.theta * scale, qf.theta, rtol=1e-9)
                assert_allclose(qm.se * scale, qf.se, rtol=1e-9)
                assert (qm.diagnostics["conditioning_dims_dropped"]
                        == qf.diagnostics["conditioning_dims_dropped"])


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(log_scale=st.floats(-12.0, 12.0))
@example(log_scale=-12.0)
@example(log_scale=12.0)
def test_fit_scales_with_the_units_of_y(log_scale):
    # y -> s y leaves the weights alone and scales theta and se by s at
    # any s: no tolerance of the LP is fixed in units of y
    data = generate(SimulationSpec("C", "M2", n=1000, reps=1, seed=11), 0).data
    s = 10.0 ** log_scale
    moved = ObservationSet(d=data.d, y=s * data.y, w=data.w, x=data.x)
    taus = [0.25, 0.5, 0.75]
    for name in ESTIMATOR_NAMES:
        for qf, qm in zip(fit(data, taus, name), fit(moved, taus, name)):
            assert_allclose(qm.theta / s, qf.theta, rtol=1e-9)
            assert_allclose(qm.se / s, qf.se, rtol=1e-9)


@pytest.mark.parametrize("bandwidth_mode", ["rot", "cv"])
def test_tau_sequence_equals_scalar_fits(dataset_m2, bandwidth_mode):
    # a sequence of levels, unsorted and with a duplicate, gives the scalar
    # fits bit for bit, in the given order
    data = dataset_m2.data
    taus = [0.75, 0.25, 0.5, 0.5]
    for name in ("uncorrected", "mar", "semiparametric_iv"):
        fits = fit(data, taus, name, bandwidth_mode=bandwidth_mode)
        assert isinstance(fits, list) and len(fits) == len(taus)
        for tau, qf in zip(taus, fits):
            one = fit(data, tau, name, bandwidth_mode=bandwidth_mode)
            assert qf.tau == tau and qf.estimator == name
            for attr in ("theta", "sigma", "se", "ci"):
                assert np.array_equal(getattr(qf, attr), getattr(one, attr))
            assert qf.diagnostics == one.diagnostics
            assert qf.qsol.active_set == one.qsol.active_set


def test_lp_iteration_count_does_not_grow(dataset_m2):
    # the nine LPs of a three-estimator, three-level fit all stay on the
    # interior point. 97 is their summed iteration count with Z'DZ factored
    # through scipy.linalg.cho_factor and every step length taken by
    # division: a leaner iteration may not converge more slowly
    fits = [qf for name in ESTIMATOR_NAMES
            for qf in fit(dataset_m2.data, [0.25, 0.5, 0.75], name)]
    assert [qf.diagnostics["lp_path"] for qf in fits] == ["interior_point"] * 9
    assert sum(qf.diagnostics["lp_iterations"] for qf in fits) <= 97


def test_tau_sequence_builds_weights_and_bandwidths_once(dataset_m2, monkeypatch):
    calls = {"weights": 0, "mar_weights": 0, "cv_bandwidths": 0}

    def counting(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counting(first_stage, "weights")
    counting(baselines, "mar_weights")
    counting(inference, "cv_bandwidths")
    data = dataset_m2.data
    for name in ("uncorrected", "mar", "semiparametric_iv"):
        before = dict(calls)
        fit(data, [0.25, 0.5, 0.75], name, bandwidth_mode="cv")
        want = {"weights": int(name == "semiparametric_iv"),
                "mar_weights": int(name == "mar"), "cv_bandwidths": 1}
        assert {k: calls[k] - before[k] for k in calls} == want
    with pytest.raises(InputError, match="at least one"):
        fit(data, [], "uncorrected")


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_fit_memory_grows_linearly_in_n(name):
    # doubling n at most about doubles the traced peak; an n x n temporary
    # would quadruple it
    peaks = []
    for n in (2000, 4000):
        data = generate(SimulationSpec("C", "M2", n=n, reps=1, seed=11), 0).data
        tracemalloc.start()
        try:
            fit(data, [0.25, 0.5, 0.75], name, bandwidth_mode="rot")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 2.2 * peaks[0]
