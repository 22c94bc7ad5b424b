import argparse
import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from selqr import (ColumnMap, InputError, NumericalError, ObservationSet,
                   SimulationSpec, corrected_cdf, default_plan, first_stage,
                   fit, fit_mar, fit_semiparametric_iv, generate, ingest_csv,
                   write_csv)
from selqr.cli import (RunConfig, _cdf_csv, build_parser, cmd_cdf, main,
                       parse_column_map)
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

    @pytest.mark.parametrize("text, message", [
        ("d=d,y=y,w=w0,X=x0", "unknown column map key 'X'"),
        ("d=d,y=y,w=w0,x=x0,x=x1", "column map repeats 'x='"),
        ("d=d,y=y,w=w0,w=w1", "column map repeats 'w='"),
    ])
    def test_column_map_rejects_unknown_and_repeated_keys(
            self, tmp_path, capsys, text, message):
        with pytest.raises(InputError, match=message):
            parse_column_map(text)
        p, _ = _sim_csv(tmp_path, n=200)
        assert main(["fit", "--data", str(p), "--map", text]) == 2
        assert message in capsys.readouterr().err


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

    def test_default_config_hash_is_pinned(self, tmp_path, capsys):
        # moving a default of RunConfig or of its flags changes this hash
        assert RunConfig().hash() == "1b3b94c62dfee64e"
        p, _ = _sim_csv(tmp_path, n=400)
        assert main(["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config_hash"] == "1b3b94c62dfee64e"

    def test_fit_recovers_truth_on_large_sample(self, tmp_path):
        p, gd = _sim_csv(tmp_path, n=5000)
        out = tmp_path / "r.json"
        assert main(["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        theta = np.array(report["estimates"][0]["theta"])
        assert_allclose(theta, gd.theta_true, atol=0.15)

    def test_knobs_reach_the_library(self, tmp_path):
        p, _ = _sim_csv(tmp_path)
        out = tmp_path / "r.json"
        assert main(["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--y-interior-knots", "1", "--w-interior-knots", "3",
                     "--estimators",
                     "mar,semiparametric_iv", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        data = ingest_csv(p, ColumnMap("d", "y", ("w0",), ("x0",)))
        iv = fit_semiparametric_iv(data, 0.5, plan=default_plan(
            data, y_interior=1, w_interior=3))
        want = {"mar": fit_mar(data, 0.5),
                "semiparametric_iv": iv}
        assert [e["estimator"] for e in report["estimates"]] == list(want)
        for e in report["estimates"]:
            qf = want[e["estimator"]]
            assert e["theta"] == qf.theta.tolist()
            assert e["sigma"] == qf.sigma.tolist()
            assert e["diagnostics"] == qf.diagnostics
        # the knots move the estimate, so a dropped plan would show
        assert iv.theta.tolist() != fit_semiparametric_iv(data, 0.5).theta.tolist()

    def test_tau_grid_report_matches_scalar_fits(self, tmp_path):
        # one call per estimator fits every level; the report keeps the
        # given tau order outer and the estimator order inner
        p, _ = _sim_csv(tmp_path)
        out = tmp_path / "r.json"
        assert main(["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--tau", "0.75,0.25,0.5", "--estimators", "mar,uncorrected",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        data = ingest_csv(p, ColumnMap("d", "y", ("w0",), ("x0",)))
        want = []
        for tau in (0.75, 0.25, 0.5):
            for name in ("mar", "uncorrected"):
                qf = fit(data, tau, name)
                want.append({"tau": tau, "estimator": name,
                             "labels": list(qf.labels),
                             "theta": qf.theta.tolist(),
                             "sigma": qf.sigma.tolist(), "se": qf.se.tolist(),
                             "ci": qf.ci.tolist(),
                             "diagnostics": qf.diagnostics})
        assert report["estimates"] == want

    @pytest.mark.parametrize("taus", ["0.25,,0.5", "abc"])
    def test_malformed_tau_is_an_input_error(self, tmp_path, capsys, taus):
        p, _ = _sim_csv(tmp_path, n=200)
        assert main(["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--tau", taus]) == 2
        assert "input error: --tau takes comma-separated numbers" in \
            capsys.readouterr().err

    def test_fit_runs_without_the_cone_projection(self, tmp_path, monkeypatch):
        # the weights are max(g_u, 1), which the projection does not enter,
        # so a failing projection fails no fit and changes no report byte
        p, _ = _sim_csv(tmp_path)
        data = ingest_csv(p, ColumnMap("d", "y", ("w0",), ("x0",)))
        args = ["fit", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                "--tau", "0.25,0.5", "--out"]
        assert main(args + [str(tmp_path / "a.json")]) == 0
        want = fit_semiparametric_iv(data, 0.5)

        def fail(*args, **kwargs):
            raise NumericalError("cone projection did not converge")

        monkeypatch.setattr(first_stage, "cone_project", fail)
        got = fit_semiparametric_iv(data, 0.5)
        assert np.array_equal(got.theta, want.theta)
        assert np.array_equal(got.sigma, want.sigma)
        assert main(args + [str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()

    def test_repeated_estimator_rejected_before_reading(self, capsys):
        with pytest.raises(InputError, match=r"repeated estimator\(s\) \['mar'\]"):
            RunConfig(estimators=("mar", "uncorrected", "mar"))
        assert main(["fit", "--data", "/nope.csv", "--map", "d=d,y=y,w=w0",
                     "--estimators", "mar,mar"]) == 2
        err = capsys.readouterr().err
        assert "repeated estimator" in err and "nope" not in err

    def test_unknown_estimator_rejected_before_reading(self, capsys):
        # the data file does not exist: the name must be checked first
        assert main(["fit", "--data", "/nope.csv", "--map", "d=d,y=y,w=w0",
                     "--estimators", "semiparametric_iv,bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "nope" not in err

    @pytest.mark.parametrize("argv", [
        ["fit", "--seed", "1"],
        ["cdf", "--seed", "1"],
        ["cdf", "--bandwidth-mode", "cv"],
        ["cdf", "--trim-floor", "0.05"],
        ["fit", "--trim-floor", "0.05"],
        ["fit", "--y-degree", "3"],
        ["fit", "--w-degree", "3"],
        ["cdf", "--y-degree", "3"],
        ["cdf", "--w-degree", "3"],
    ])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--data", "d.csv", "--map", "d=d,y=y,w=w0"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["fit", "--data", "/nope.csv", "--map",
                     "d=d,y=y,w=w0"]) == 2

    @pytest.mark.parametrize("command", ["fit", "cdf"])
    @pytest.mark.parametrize("case", ["data_is_directory", "out_is_directory",
                                      "data_not_utf8"])
    def test_unusable_path_is_an_input_error(self, tmp_path, capsys, command,
                                             case):
        p, _ = _sim_csv(tmp_path, n=200)
        data, out = str(p), str(tmp_path / "out")
        if case == "data_is_directory":
            data = str(tmp_path)
        elif case == "out_is_directory":
            out = str(tmp_path)
        else:
            p.write_bytes(p.read_bytes().replace(b"\r\n", b"\xff\r\n", 1))
        assert main([command, "--data", data, "--map", "d=d,y=y,w=w0,x=x0",
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        if case == "data_not_utf8":
            assert f"{p}: not UTF-8 text" in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # a spreadsheet may save UTF-8 with a leading byte-order mark
        p, _ = _sim_csv(tmp_path, n=400)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        reports = []
        for path in (p, bom):
            assert main(["fit", "--data", str(path), "--map",
                         "d=d,y=y,w=w0,x=x0"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["fit", "cdf"])
    @pytest.mark.parametrize("column", ["x0", "w0"])
    def test_constant_column_exit_code(self, tmp_path, capsys, column, command):
        data = toy_data(n=200)
        constant = {"x": data.x, "w": data.w}
        constant[column[0]] = np.ones_like(constant[column[0]])
        p = tmp_path / "constant.csv"
        write_csv(p, ObservationSet(d=data.d, y=data.y, **constant))
        assert main([command, "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                     "--out", str(tmp_path / "out")]) == 2
        assert f"column {column} is constant" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", ["fit", "cdf"])
def test_fewer_instrument_than_outcome_columns_is_an_input_error(
        tmp_path, capsys, command):
    # J = 7 + 1 outcome columns against K = 3 + 1 instrument columns
    p, _ = _sim_csv(tmp_path, n=200)
    assert main([command, "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0",
                 "--y-interior-knots", "4", "--w-interior-knots", "0"]) == 2
    assert "at least as many columns" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, renamed, unrecorded", [
    ("fit", RunConfig, {"taus": "tau"}, {"data", "map", "out"}),
    ("simulate", SimulationSpec, {}, {"jobs", "out"}),
], ids=["fit", "simulate"])
def test_every_config_field_has_one_flag(command, config, renamed, unrecorded):
    # a field that no flag sets is a knob nothing outside the library reads
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    dests = [a.dest for a in sub._actions]
    fields = [renamed.get(f.name, f.name) for f in dataclasses.fields(config)]
    for name in fields:
        assert dests.count(name) == 1, name
    # and every other flag is one field, so the report's config records it
    assert sorted(set(dests) - unrecorded - {"help"}) == sorted(fields)


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

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_n_is_an_input_error(self, n, capsys):
        assert main(["simulate", "--setting", "C", "--mechanism", "M2",
                     "--n", n, "--reps", "1"]) == 2
        assert "input error: n must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_an_input_error(self, jobs, capsys):
        assert main(["simulate", "--setting", "C", "--mechanism", "M2",
                     "--n", "50", "--reps", "1", "--jobs", jobs]) == 2
        assert "input error: jobs must be >= 1" in capsys.readouterr().err


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

    def test_empirical_column_is_the_ecdf_on_tied_outcomes(self):
        data = toy_data(n=400, seed=5)
        tied = ObservationSet(d=data.d, y=np.round(data.y), w=data.w, x=data.x)
        rows = np.array(cmd_cdf(tied, default_plan(tied)))
        y_sel = np.sort(tied.y[tied.selected])
        assert len(rows) < len(y_sel)
        assert np.array_equal(rows[:, 0], np.unique(y_sel))
        assert np.array_equal(
            rows[:, 2], np.searchsorted(y_sel, rows[:, 0], side="right") / len(y_sel))

    def test_cdf_runs_without_the_cone_projection(self, tmp_path, monkeypatch):
        # the corrected CDF weighs rows by max(g_u, 1); on this sample the
        # projection binds, and the CDF is the same with or without it
        p, _ = _sim_csv(tmp_path, n=800, seed=0)
        data = ingest_csv(p, parse_column_map("d=d,y=y,w=w0,x=x0"))
        fs = first_stage.estimate_unconstrained(data, default_plan(data))
        projected = first_stage.cone_project(fs, data)
        assert projected.kkt["active_set_size"] > 0
        assert np.array_equal(corrected_cdf(projected, data).cum_weights,
                              corrected_cdf(fs, data).cum_weights)

        args = ["cdf", "--data", str(p), "--map", "d=d,y=y,w=w0,x=x0", "--out"]
        assert main(args + [str(tmp_path / "a.csv")]) == 0

        def fail(*args, **kwargs):
            raise NumericalError("cone projection did not converge")

        monkeypatch.setattr(first_stage, "cone_project", fail)
        assert main(args + [str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

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
            assert _cdf_csv(sample) == via_csv_writer(sample)
