"""The cold start: selqr and its normal paths load only numpy, scipy.linalg
and scipy.special.

A fresh interpreter imports selqr, runs `selqr fit` (all three estimators,
two levels), `selqr cdf` and a small `simlab.run`, and then lists the
scipy subpackages it loaded. scipy.optimize is imported only where a QR
solve falls back to HiGHS, a degenerate vertex needs bounded least squares
or the cone projection runs, and none of those happens here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNWANTED = ("scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.sparse")

SCRIPT = f"""
import contextlib, io, json, sys
import selqr
from selqr import cli, simlab

gd = simlab.generate(simlab.SimulationSpec("C", "M2", n=400, reps=1, seed=1), 0)
selqr.write_csv("sample.csv", gd.data)
base = ["--data", "sample.csv", "--map", "d=d,y=y,w=w0,x=x0"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["fit", *base, "--tau", "0.25,0.5", "--out", "fit.json",
                     "--estimators", "uncorrected,mar,semiparametric_iv"]) == 0
    assert cli.main(["cdf", *base, "--out", "cdf.csv"]) == 0
    simlab.run(simlab.SimulationSpec("C", "M2", n=300, reps=2, seed=3))
print(json.dumps([m for m in {UNWANTED!r} if m in sys.modules]))
"""


def test_normal_paths_load_no_heavy_scipy_subpackage(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == []
