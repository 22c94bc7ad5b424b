import csv
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from selqr import (ColumnMap, InputError, SimulationSpec, generate,
                   ingest_csv, write_csv)
from selqr.cli import _write_cdf_csv, main, parse_column_map
from conftest import toy_data


class TestIngest:
    def test_small_well_formed_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("d,y,w0,x0\n1,2.5,0.1,1.0\n0,,0.2,2.0\n1,-1.0,0.3,3.0\n")
        data = ingest_csv(p, ColumnMap("d", "y", ("w0",), ("x0",)))
        assert data.n == 3
        assert np.isnan(data.y[1])
        assert_allclose(data.y[[0, 2]], [2.5, -1.0])

    def test_missing_outcome_on_selected_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("d,y,w0\n1,1.0,0.1\n1,,0.2\n")
        with pytest.raises(InputError, match="missing outcome at line 3"):
            ingest_csv(p, ColumnMap("d", "y", ("w0",)))

    def test_non_binary_selection(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("d,y,w0\n2,1.0,0.1\n")
        with pytest.raises(InputError, match="non-binary"):
            ingest_csv(p, ColumnMap("d", "y", ("w0",)))

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("d,y\n1,1.0\n")
        with pytest.raises(InputError, match="missing column"):
            ingest_csv(p, ColumnMap("d", "y", ("w0",)))

    def test_roundtrip_exact(self, tmp_path):
        data = toy_data(n=120, seed=5)
        p = tmp_path / "rt.csv"
        cm = write_csv(p, data)
        back = ingest_csv(p, cm)
        assert (back.d == data.d).all()
        assert_allclose(back.w, data.w, atol=0, rtol=0)
        assert_allclose(back.x, data.x, atol=0, rtol=0)
        sel = data.selected
        assert_allclose(back.y[sel], data.y[sel], atol=0, rtol=0)
        assert np.isnan(back.y[~sel]).all()

    def test_column_map_parser(self):
        cm = parse_column_map("d=sel,y=wage,w=iw1+iw2,x=age+educ")
        assert cm.d_column == "sel" and cm.w_columns == ("iw1", "iw2")
        with pytest.raises(InputError):
            parse_column_map("y=wage,w=iw")
        with pytest.raises(InputError):
            parse_column_map("d=a,y=b,w=b")   # overlapping roles


def _sim_csv(tmp_path, n=800, mechanism="M2", seed=0):
    gd = generate(SimulationSpec("C", mechanism, n=n, reps=1, seed=seed), 0)
    p = tmp_path / "sim.csv"
    write_csv(p, gd.data)
    return p, gd


class TestFitCommand:
    def test_fit_report_schema_and_determinism(self, tmp_path, capsys):
        p, gd = _sim_csv(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                "--tau", "0.5", "--estimators",
                "semiparametric_iv,uncorrected"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert {"config_hash", "version", "estimates"} <= set(report)
        est = {e["estimator"]: e for e in report["estimates"]}
        assert set(est) == {"semiparametric_iv", "uncorrected"}
        iv = est["semiparametric_iv"]
        assert len(iv["theta"]) == 3 and len(iv["ci"]) == 3
        sigma = np.array(iv["sigma"])
        assert sigma.shape == (3, 3)
        assert_allclose(sigma, sigma.T)
        assert "moment_residual_max" in iv["diagnostics"]
        assert "moment_residual_max" not in est["uncorrected"]["diagnostics"]

    def test_fit_recovers_truth_on_large_sample(self, tmp_path):
        p, gd = _sim_csv(tmp_path, n=5000)
        out = tmp_path / "r.json"
        assert main(["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        theta = np.array(report["estimates"][0]["theta"])
        assert_allclose(theta, gd.theta_true, atol=0.15)

    def test_missing_file_exit_code(self, capsys):
        assert main(["fit", "--data", "/nope.csv", "--map",
                     "d=d,y=y,w=w0"]) == 2

    def test_short_row_exit_code(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("d,y,w0,x0\n1,2.0,0.5,0.1\n1,3.0\n")
        for command in ("fit", "cdf"):
            assert main([command, "--data", str(p), "--map",
                         "d=d,y=y,w=w0,x=x0"]) == 2
            assert "row has 2 of 4 fields at line 3" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path):
        # duplicated column makes the quantile design rank deficient
        rows = ["d,y,w0,x0"]
        rng = np.random.default_rng(0)
        for i in range(60):
            v = rng.standard_normal()
            rows.append(f"1,{rng.standard_normal()},{v},{v}")
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(rows) + "\n")
        code = main(["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--estimators", "uncorrected"])
        assert code == 3


class TestSimulateCommand:
    def test_single_rep_table_and_reruns_identical(self, tmp_path, capsys):
        args = ["simulate", "--setting", "C", "--mechanism", "M2",
                "--reps", "1", "--n", "400", "--seed", "7",
                "--estimators", "uncorrected,mar",
                "--out", str(tmp_path / "t1")]
        assert main(args) == 0
        args2 = args[:-1] + [str(tmp_path / "t2")]
        assert main(args2) == 0
        assert (tmp_path / "t1.csv").read_bytes() == \
               (tmp_path / "t2.csv").read_bytes()
        assert (tmp_path / "t1.json").read_bytes() == \
               (tmp_path / "t2.json").read_bytes()
        table = json.loads((tmp_path / "t1.json").read_text())
        cov = table["metrics"]["uncorrected"]["coverage"]
        assert set(cov) <= {0.0, 1.0}
        text = capsys.readouterr().out
        for panel in ("Mean bias", "RMSE", "CI length", "Coverage"):
            assert panel in text

    def test_csv_rows_per_estimator_coefficient_metric(self, tmp_path):
        assert main(["simulate", "--setting", "C", "--mechanism", "M1",
                     "--reps", "2", "--n", "400", "--estimators",
                     "uncorrected", "--out", str(tmp_path / "m")]) == 0
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert lines[0] == "estimator,coefficient,metric,value"
        assert len(lines) == 1 + 1 * 3 * 4


class TestCdfCommand:
    def test_identical_columns_under_full_selection(self, tmp_path):
        data = toy_data(n=300, seed=2, all_selected=True)
        p = tmp_path / "full.csv"
        write_csv(p, data)
        out = tmp_path / "cdf.csv"
        assert main(["cdf", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert_allclose(rows[:, 1], rows[:, 2], atol=1e-12)

    def test_columns_nondecreasing(self, tmp_path):
        p, _ = _sim_csv(tmp_path, n=500, seed=3)
        out = tmp_path / "cdf.csv"
        assert main(["cdf", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert (np.diff(rows[:, 0]) > 0).all()
        assert (np.diff(rows[:, 1]) >= 0).all()
        assert (np.diff(rows[:, 2]) >= 0).all()
        assert rows[-1, 1] == 1.0 and rows[-1, 2] == 1.0

    def test_csv_bytes_match_csv_writer(self):
        def via_csv_writer(rows):
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["y", "cdf_corrected", "cdf_empirical"])
            for row in rows:
                writer.writerow([repr(v) for v in row])
            return buf.getvalue()

        rows = [(-0.0, 0.0, 1e-300), (1.0 / 3.0, 5e-324, 1.0),
                (-1.5e17, float("nan"), float("inf")), (2.0, 0.25, 1e16)]
        for sample in (rows, []):
            got = io.StringIO()
            _write_cdf_csv(sample, got)
            assert got.getvalue() == via_csv_writer(sample)
