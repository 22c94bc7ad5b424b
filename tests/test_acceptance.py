"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The two
500-replication simulations dominate the runtime; the whole module stays
well under the 20-minute budget.
"""

import os
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import selqr
from selqr import (CorrectedCDF, QuantileProblem, SimulationSpec, corrected_cdf,
                   generate, run, solve)
from selqr.activeset import kkt_residuals, solve_qp
from selqr.first_stage import cone_project, estimate_unconstrained
from oracles import brute_force_qr, enumerate_qp
from conftest import toy_data

N_JOBS = min(4, os.cpu_count() or 1)
REPS = 500
SEED = 20240801

# reference values: mean bias, RMSE and coverage for (intercept, w, x)
M2_BIAS_REF = np.array([0.042, 0.005, -0.018])
M2_RMSE_REF = np.array([0.131, 0.050, 0.060])
M2_BIAS_TOL = 0.04
M2_RMSE_RELTOL = 0.30
UNCORRECTED_M2_INTERCEPT_BIAS = (0.19, 0.31)
MAR_M2_INTERCEPT_BIAS = (0.25, 0.39)
M1_BIAS_CAP = 0.05
IV_M1_COVERAGE_MIN = 0.95
IV_M2_COVERAGE_MIN = 0.90


def _announce(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def timed_m2():
    spec = SimulationSpec("C", "M2", n=1000, reps=REPS, seed=SEED)
    start = time.time()
    table = run(spec, n_jobs=N_JOBS)
    return table, time.time() - start


@pytest.fixture(scope="module")
def table_m2(timed_m2):
    return timed_m2[0]


@pytest.fixture(scope="module")
def table_m1():
    spec = SimulationSpec("C", "M1", n=1000, reps=REPS, seed=SEED)
    return run(spec, n_jobs=N_JOBS)


def test_criterion_1_table_reproduction(timed_m2):
    table_m2, elapsed = timed_m2
    m = table_m2.metrics["semiparametric_iv"]
    bias_ok = (np.abs(m["bias"] - M2_BIAS_REF) <= M2_BIAS_TOL).all()
    rmse_ok = (np.abs(m["rmse"] - M2_RMSE_REF) <= M2_RMSE_RELTOL * M2_RMSE_REF).all()
    cov_ok = (m["coverage"] >= IV_M2_COVERAGE_MIN).all()
    time_ok = elapsed < 1200
    _announce(1, bias_ok and rmse_ok and cov_ok and time_ok,
              f"IV under MNAR: bias {np.round(m['bias'], 3)} "
              f"(ref {M2_BIAS_REF} +/- {M2_BIAS_TOL}), "
              f"rmse {np.round(m['rmse'], 3)} (ref {M2_RMSE_REF} +/- 30%), "
              f"coverage {np.round(m['coverage'], 3)} (>= {IV_M2_COVERAGE_MIN}), "
              f"{elapsed:.0f}s for {REPS} replications")


def test_criterion_2_bias_detection(table_m2):
    unc = table_m2.metrics["uncorrected"]["bias"][0]
    mar = table_m2.metrics["mar"]["bias"][0]
    ok = (UNCORRECTED_M2_INTERCEPT_BIAS[0] <= unc <= UNCORRECTED_M2_INTERCEPT_BIAS[1]
          and MAR_M2_INTERCEPT_BIAS[0] <= mar <= MAR_M2_INTERCEPT_BIAS[1])
    _announce(2, ok,
              f"uncorrected intercept bias {unc:.3f} in "
              f"{UNCORRECTED_M2_INTERCEPT_BIAS}, MAR {mar:.3f} in "
              f"{MAR_M2_INTERCEPT_BIAS}")


def test_criterion_3_null_case(table_m1):
    worst = {name: np.abs(table_m1.metrics[name]["bias"]).max()
             for name in ("uncorrected", "mar", "semiparametric_iv")}
    cov = table_m1.metrics["semiparametric_iv"]["coverage"]
    ok = max(worst.values()) <= M1_BIAS_CAP and (cov >= IV_M1_COVERAGE_MIN).all()
    _announce(3, ok,
              f"MAR-truth max |bias| {({k: round(v, 3) for k, v in worst.items()})} "
              f"(cap {M1_BIAS_CAP}), IV coverage {np.round(cov, 3)} "
              f"(>= {IV_M1_COVERAGE_MIN})")


def test_criterion_4_missing_rate_calibration():
    worst = 0.0
    for setting in selqr.simlab.SETTINGS:
        for mech in selqr.simlab.MECHANISMS:
            spec = SimulationSpec(setting, mech, n=10000, reps=1, seed=SEED)
            missing = np.mean([1.0 - generate(spec, r).data.n_selected / spec.n
                               for r in range(50)])
            worst = max(worst, abs(missing - 0.35))
            assert abs(missing - 0.35) <= 0.03, (setting, mech, missing)
    _announce(4, True,
              f"all 15 setting/mechanism pairs within 35% +/- 3% missing "
              f"(worst deviation {worst:.3f})")


def test_criterion_5_solver_oracle():
    rng = np.random.default_rng(SEED)
    start = time.time()
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(6, 16))
        d = int(rng.integers(1, 4))
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        y = 2.0 * rng.standard_normal(n)
        w = rng.uniform(1, 3, n)
        tau = float(rng.choice([0.1, 0.25, 0.5, 0.9]))
        sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=tau))
        _, obj_oracle = brute_force_qr(Z, y, w, tau)
        worst = max(worst, abs(sol.objective - obj_oracle))
        assert abs(sol.objective - obj_oracle) < 1e-6
    elapsed = time.time() - start
    _announce(5, elapsed < 60,
              f"200 weighted QR problems match vertex enumeration "
              f"(worst gap {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_6_cone_projection_oracle():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for k in range(100):
        L = rng.standard_normal((3, 3))
        Q = L @ L.T + 3.0 * np.eye(3)
        q = rng.standard_normal(3)
        A = rng.standard_normal((3, 3))
        x_feas = rng.standard_normal(3)
        b = A @ x_feas - rng.random(3)
        sol = solve_qp(Q, q, A, b)
        _, obj_oracle = enumerate_qp(Q, q, A, b)
        worst = max(worst, abs(sol.objective - obj_oracle))
        assert abs(sol.objective - obj_oracle) < 1e-8
        kkt = kkt_residuals(Q, q, A, b, sol.x)
        assert kkt["stationarity"] < 1e-6 and kkt["feasibility"] < 1e-8
    # KKT certificate on pipeline fits (cone_project audits internally and
    # raises on violation; spot-check exposed values here)
    for rep in range(5):
        gd = generate(SimulationSpec("C", "M2", n=1000, reps=1, seed=SEED), rep)
        fit = cone_project(estimate_unconstrained(gd.data), gd.data)
        assert fit.kkt["stationarity"] < 1e-6
        assert (fit.constraint_points @ fit.beta_c).min() >= 1.0 - 1e-8
    _announce(6, True,
              f"100 QP oracle matches (worst gap {worst:.2e}); KKT certificate "
              f"holds on pipeline fits")


def test_criterion_7_exactly_identified_moment_residual():
    worst = 0.0
    for seed in range(5):
        data = toy_data(n=800, seed=seed)
        # K = J = 4: quadratic splines without interior knots, linear x
        fit = estimate_unconstrained(data, selqr.default_plan(data, 0, 0))
        worst = max(worst, float(np.abs(selqr.moment_residual(fit)).max()))
    _announce(7, worst < 1e-8,
              f"exactly identified first stage drives the moment residual to "
              f"{worst:.2e} (< 1e-8)")


def test_criterion_8_cdf_estimator():
    # exact ECDF degeneration under unit weights
    rng = np.random.default_rng(SEED)
    y = rng.standard_normal(500)
    cdf = CorrectedCDF.from_values(y, np.ones_like(y))
    grid = np.concatenate([y, rng.standard_normal(100)])
    ecdf_vals = np.searchsorted(np.sort(y), grid, side="right") / len(y)
    assert (cdf.evaluate(grid) == ecdf_vals).all()

    wins = 0
    for rep in range(100):
        gd = generate(SimulationSpec("C", "M2", n=20000, reps=1, seed=SEED), rep)
        data = gd.data
        fit = estimate_unconstrained(data)
        cdf = corrected_cdf(fit, data)
        latent = np.sort(gd.y_star)
        grid = cdf.support
        f_latent = np.searchsorted(latent, grid, side="right") / len(latent)
        y_sel_sorted = np.sort(data.y[data.selected])
        f_ecdf = np.searchsorted(y_sel_sorted, grid, side="right") / len(y_sel_sorted)
        d_corr = np.abs(cdf.evaluate(grid) - f_latent).max()
        d_ecdf = np.abs(f_ecdf - f_latent).max()
        wins += d_corr < d_ecdf
    _announce(8, wins >= 90,
              f"unit weights reproduce the ECDF exactly; corrected CDF beats "
              f"the ECDF in {wins}/100 seeded replications (>= 90)")


def test_criterion_9_property_suite(table_m2):
    rng = np.random.default_rng(SEED + 2)

    # basis partition of unity at 1e-12
    kv = selqr.make_knots(rng.standard_normal(400), 3, 2)
    vals = selqr.eval_basis(kv, np.linspace(kv.lo, kv.hi, 401))
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12

    # QR Koenker-Bassett certificate, weight-scaling invariance, equivariance
    n = 40
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = rng.standard_normal(n)
    w = rng.uniform(1, 3, n)
    sol = solve(QuantileProblem(Z=Z, y=y, w=w, tau=0.3))
    assert selqr.qr.kb_stationarity(Z, y - Z @ sol.theta, w, 0.3, zero_tol=1e-9) <= 1e-7
    scaled = solve(QuantileProblem(Z=Z, y=y, w=3.0 * w, tau=0.3))
    assert_allclose(scaled.theta, sol.theta, atol=1e-8)
    gamma = np.array([1.0, -0.5, 0.25])
    shifted = solve(QuantileProblem(Z=Z, y=y + Z @ gamma, w=w, tau=0.3))
    assert_allclose(shifted.theta, sol.theta + gamma, atol=1e-7)

    # covariance PSD
    gd = generate(SimulationSpec("C", "M2", n=1000, reps=1, seed=SEED), 0)
    qf = selqr.fit_semiparametric_iv(gd.data, 0.5)
    assert np.linalg.eigvalsh(qf.sigma).min() >= -1e-12

    # probit gradient below 1e-8
    from scipy.stats import norm
    from selqr.baselines import _probit_parts
    X = np.column_stack([np.ones(300), rng.standard_normal(300)])
    dprob = (rng.random(300) < norm.cdf(0.3 + 0.5 * X[:, 1])).astype(float)
    pf = selqr.probit_fit(dprob, X)
    _, grad, _, _ = _probit_parts(pf.gamma, dprob, X)
    assert np.abs(grad).max() < 1e-8

    # RMSE^2 = bias^2 + variance on the stored M2 draws
    for name in table_m2.spec.estimators:
        theta = table_m2.replications[name]["theta"]
        err = theta - table_m2.theta_true
        assert_allclose(table_m2.metrics[name]["rmse"] ** 2,
                        err.mean(axis=0) ** 2 + err.var(axis=0), atol=1e-10)

    # full-run determinism across thread counts
    import json
    spec = SimulationSpec("C", "M2", n=300, reps=6, seed=SEED)
    one = run(spec, n_jobs=1).to_dict()
    two = run(spec, n_jobs=2).to_dict()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    _announce(9, True,
              "partition of unity, Koenker-Bassett certificate, invariances, "
              "PSD covariance, probit gradient, RMSE identity and thread-count "
              "determinism all hold")
