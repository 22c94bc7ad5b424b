"""The benchmark tracer sees a fit the way the benchmark reports it.

A fresh interpreter installs `perfbench/tracing.py`'s Tracer, which rebinds
selqr functions for the rest of the process, and fits all three
estimators at three levels. Every LP is counted, the estimators' own time
is attributed to them, and each covariance runs inside the span of the
estimator that asked for it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

SCRIPT = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()

from selqr import estimator, simlab
data = simlab.generate(simlab.SimulationSpec("C", "M2", n=400, reps=1, seed=0), 0).data
tracer.start_op()
for name in estimator.ESTIMATOR_NAMES:
    estimator.fit(data, [0.25, 0.5, 0.75], name)
names = [span[0] for span in tracer.spans]
print(json.dumps({{
    "per_layer": tracer.per_layer(1),
    "spans": [[name, None if parent is None else names[parent]]
              for name, _, _, parent, _ in tracer.spans],
}}))
"""


def test_tracer_attributes_every_fit(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["per_layer"]["qr.solve_calls"] == 9
    assert report["per_layer"]["estimator.self_s"] > 0
    parents = [parent for name, parent in report["spans"]
               if name == "inference.covariance"]
    assert len(parents) == 3
    assert all(p is not None and p.startswith("estimator.fit_") for p in parents)
