#!/usr/bin/env python3
"""The file-based workflow: CSV in, JSON report and CDF table out.

Everything the library does is also reachable through the `selqr` command
line tool; this script drives it in-process on a synthetic dataset.
"""

import json
import tempfile
from pathlib import Path

from selqr import SimulationSpec, generate, write_csv
from selqr.cli import main

with tempfile.TemporaryDirectory(prefix="selqr_demo_") as tmp:
    # removed with its files when the block ends, even on a failure
    workdir = Path(tmp)
    gd = generate(SimulationSpec("C", "M2", n=3000, reps=1, seed=5), 0)
    csv_path = workdir / "sample.csv"
    write_csv(csv_path, gd.data)
    print(f"wrote {csv_path} ({gd.data.n} rows, "
          f"{gd.data.n_selected} with observed outcomes)")

    report_path = workdir / "report.json"
    code = main(["fit",
                 "--data", str(csv_path),
                 "--map", "d=d,y=y,w=w0,x=x0",
                 "--tau", "0.25,0.5,0.75",
                 "--estimators", "semiparametric_iv,uncorrected",
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    print(f"\nreport {report_path.name}: config hash {report['config_hash']}, "
          f"version {report['version']}")
    print(f"{'tau':>5s} {'estimator':<18s} {'theta':<30s}")
    for e in report["estimates"]:
        theta = ", ".join(f"{v:.3f}" for v in e["theta"])
        print(f"{e['tau']:5.2f} {e['estimator']:<18s} [{theta}]")
    truth = [float(v) for v in gd.theta_true]
    print(f"(truth at tau=0.5, Z order (intercept, x, w): {truth}; "
          f"other taus shift the intercept by the error quantile)")

    cdf_path = workdir / "cdf.csv"
    code = main(["cdf",
                 "--data", str(csv_path),
                 "--map", "d=d,y=y,w=w0,x=x0",
                 "--out", str(cdf_path)])
    assert code == 0
    lines = cdf_path.read_text().splitlines()
    print(f"\n{cdf_path.name}: {len(lines) - 1} grid rows; first rows:")
    for line in lines[:4]:
        print(f"  {line}")
