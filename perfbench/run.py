"""Benchmark of selqr: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload fit_grid --seed 0 --seconds 6 --trace 0

Inputs are generated from the seed into perfbench/.work/, then each
measurement runs in a fresh single-threaded worker process (worker.py):
two that only time the cold start, then one that also times whole rounds of
operations for --seconds. With --trace 1 a single traced worker reports the
per-layer metrics instead. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. Details go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0          # a run must end within 180 s
SETUP_SAMPLES = 3           # cold starts per run; setup_s is their median

# one thread for every BLAS/OpenMP pool, in this process and its workers
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from hostspeed import NOMINAL_S  # noqa: E402  (after the pins)
from workloads import WORKLOADS, make_inputs  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare(workload: str, seed: int, workdir: Path) -> Path:
    """Generate the run's inputs and compile selqr's bytecode, so that no
    cold start pays for compilation."""
    compileall.compile_dir(str(ROOT / "src" / "selqr"), quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps(make_inputs(workload, seed, workdir)))
    return manifest


def run_worker(workload, manifest, worker, seconds, mode, t_start) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - t_start)
    if remaining <= 0:
        fail("out of time before all workers ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(manifest),
             str(worker), repr(seconds), mode],
            stdout=subprocess.PIPE, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"worker {worker} did not finish within the run's time limit")
    if proc.returncode != 0:
        fail(f"worker {worker} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wall_times(workers, measured) -> dict:
    """The time metrics as the clock read them."""
    return {"setup_s": statistics.median(w["setup_s"] for w in workers),
            "op_s": statistics.median(measured["op_times"]),
            "ops_per_s": measured["attempted"] / measured["busy_s"]}


def host_scaled_times(workers, measured) -> dict:
    """The time metrics at the host speed at which the reference takes
    NOMINAL_S: each time is scaled by NOMINAL_S over the reference time
    measured next to it in the same process."""
    setup = [w["setup_s"] * NOMINAL_S / statistics.median(w["setup_refs"])
             for w in workers]
    ops = [t * NOMINAL_S / r for t, r in zip(measured["op_times"], measured["ref_times"])]
    busy = sum(ops) * measured["ops_per_call"]
    return {"setup_s": statistics.median(setup), "op_s": statistics.median(ops),
            "ops_per_s": measured["attempted"] / busy}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not (ROOT / "src" / "selqr" / "__init__.py").is_file():
        fail(f"no selqr sources under {ROOT / 'src'}; run from a full checkout")

    t_start = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / ".work" / tag
    try:
        manifest = prepare(args.workload, args.seed, workdir)
        if args.trace:
            workers = [run_worker(args.workload, manifest, SETUP_SAMPLES, args.seconds,
                                  "trace", t_start)]
        else:
            workers = [run_worker(args.workload, manifest, i, args.seconds,
                                  "setup" if i < SETUP_SAMPLES - 1 else "timed", t_start)
                       for i in range(SETUP_SAMPLES)]
        measured = workers[-1]
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        if args.trace:
            shutil.copy(measured["spans"], results / f"{tag}-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = {"host_scaled": host_scaled_times(workers, measured),
             "wall": wall_times(workers, measured)}
    if args.trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in measured["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": times["host_scaled"]["setup_s"], "unit": "s"},
            "op_s": {"value": times["host_scaled"]["op_s"], "unit": "s"},
            "ops_per_s": {"value": times["host_scaled"]["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in workers),
                            "unit": "MB"},
        }
    failures = [f for w in workers for f in w["failures"]]
    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    (results / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "workers": workers, "times": times, "metrics": metrics},
        indent=1))
    print(json.dumps({"correct": not failures, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
