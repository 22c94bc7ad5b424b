"""The benchmark's checks pass on real outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from selqr import cli, simlab  # noqa: E402

TAUS, ESTIMATORS = workloads.GRID_TAUS, workloads.ESTIMATORS


def _fit(tmp_path, sample, *flags):
    paths = sample.save(tmp_path / "s")
    out = tmp_path / "report.json"
    assert cli.main(["fit", "--data", paths["csv"], "--map", workloads.COLMAP,
                     "--out", str(out), *flags]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def grid_case(tmp_path_factory):
    sample = workloads._first_selected(3, 400)
    report = _fit(tmp_path_factory.mktemp("grid"), sample, "--tau", "0.25,0.5,0.75",
                  "--estimators", ",".join(ESTIMATORS))
    return report, sample


@pytest.fixture(scope="module")
def cv_case(tmp_path_factory):
    sample = workloads._first_selected(4, 300)
    capture = tracing.Capture("inference.cv_bandwidths")
    _fit(tmp_path_factory.mktemp("cv"), sample, "--estimators", "semiparametric_iv",
         "--bandwidth-mode", "cv")
    (args, _, bw), = capture.calls
    return np.asarray(args[0]), np.asarray(bw), sample


@pytest.fixture(scope="module")
def cdf_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cdf")
    sample = workloads._draw(5, 3000)
    paths = sample.save(tmp / "s")
    out = tmp / "cdf.csv"
    assert cli.main(["cdf", "--data", paths["csv"], "--map", workloads.COLMAP,
                     "--out", str(out)]) == 0
    return checks.read_cdf_csv(out), sample


def _estimate(report, estimator, tau=0.5):
    return next(e for e in report["estimates"]
                if e["estimator"] == estimator and e["tau"] == tau)


def test_fit_report_passes(grid_case):
    report, sample = grid_case
    assert checks.check_fit_report(report, sample, TAUS, ESTIMATORS, True) == []


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_shifted_theta_is_rejected(grid_case, estimator):
    report, sample = copy.deepcopy(grid_case[0]), grid_case[1]
    _estimate(report, estimator)["theta"][0] += 0.05
    fails = checks.check_fit_report(report, sample, TAUS, ESTIMATORS, True)
    assert any("ci != theta" in f for f in fails)


def test_shifted_uncorrected_fit_fails_optimality(grid_case):
    report, sample = copy.deepcopy(grid_case[0]), grid_case[1]
    est = _estimate(report, "uncorrected")
    est["theta"][0] += 0.05
    est["ci"] = [[lo + (k == 0) * 0.05, hi + (k == 0) * 0.05]
                 for k, (lo, hi) in enumerate(est["ci"])]
    fails = checks.check_fit_report(report, sample, TAUS, ESTIMATORS, True)
    assert [f for f in fails if "optimality" in f] and \
        not [f for f in fails if "ci != theta" in f]


def test_shifted_corrected_fit_misses_the_truth(grid_case):
    report, sample = copy.deepcopy(grid_case[0]), grid_case[1]
    est = _estimate(report, "semiparametric_iv")
    shift = 5.0 * est["se"][1]
    est["theta"][1] += shift
    est["ci"][1] = [est["ci"][1][0] + shift, est["ci"][1][1] + shift]
    fails = checks.check_fit_report(report, sample, TAUS, ESTIMATORS, True)
    assert fails and all("from the truth" in f for f in fails)


def test_inflated_se_is_rejected(grid_case):
    report, sample = copy.deepcopy(grid_case[0]), grid_case[1]
    _estimate(report, "uncorrected")["sigma"][0][0] *= 1.01
    fails = checks.check_fit_report(report, sample, TAUS, ESTIMATORS, True)
    assert any("se != sqrt" in f for f in fails)


def test_cdf_passes(cdf_case):
    (y, corrected, empirical), sample = cdf_case
    assert checks.check_cdf(y, corrected, empirical, sample) == []


def test_non_monotone_cdf_is_rejected(cdf_case):
    (y, corrected, empirical), sample = cdf_case
    bad = corrected.copy()
    k = len(bad) // 2
    bad[k], bad[k + 1] = bad[k + 1], bad[k] - 1e-3
    fails = checks.check_cdf(y, bad, empirical, sample)
    assert any("decreases" in f for f in fails)


def test_wrong_empirical_cdf_is_rejected(cdf_case):
    (y, corrected, empirical), sample = cdf_case
    bad = empirical.copy()
    bad[10] = np.nextafter(bad[10], 1.0)
    assert checks.check_cdf(y, corrected, bad, sample)


def test_cv_bandwidths_pass(cv_case):
    V, bw, sample = cv_case
    assert checks.check_cv_bandwidths(V, bw, sample) == []


def test_off_grid_bandwidth_is_rejected(cv_case):
    V, bw, sample = cv_case
    fails = checks.check_cv_bandwidths(V, bw * 1.01, sample)
    assert any("not one point of the multiplier grid" in f for f in fails)


def test_non_minimal_grid_point_is_rejected(cv_case):
    V, bw, sample = cv_case
    h0 = checks.rot_bandwidths(V)
    k = int(np.argmin(np.abs(checks.CV_GRID - bw[0] / h0[0])))
    other = checks.CV_GRID[k + 1 if k < 5 else k - 1]
    fails = checks.check_cv_bandwidths(V, other * h0, sample)
    assert any("LSCV score" in f for f in fails)


def test_mc_table_checks():
    table = simlab.run(simlab.SimulationSpec("C", "M2", n=400, reps=3, seed=9))
    assert checks.check_mc_table(table, 3) == []
    table.metrics["mar"]["bias"][0] += 1e-6
    assert any("mar: bias" in f for f in checks.check_mc_table(table, 3))


def test_mc_bias_order():
    assert checks.check_mc_bias_order(
        {"semiparametric_iv": [0.3, -0.2], "uncorrected": [0.3, 0.2]}) == []
    assert checks.check_mc_bias_order(
        {"semiparametric_iv": [0.3, 0.2], "uncorrected": [0.3, -0.2]})


def test_t3_quantile():
    assert checks.t3_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert checks.t3_quantile(0.75) == pytest.approx(0.7648923284, abs=1e-9)
    assert checks.t3_quantile(0.25) == pytest.approx(-0.7648923284, abs=1e-9)
