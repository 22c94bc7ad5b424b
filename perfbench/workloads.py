"""The four workloads: their inputs, one operation, and the checks.

All inputs are draws of selqr.simlab.generate in setting C (scaled t3
errors) under mechanism M2 (MNAR: selection rises with the latent outcome).
`make_inputs` writes them before any timed process starts; a `Workload`
runs inside a worker process and calls selqr only through `cli.main` and
`simlab.run`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLMAP = "d=d,y=y,w=w0,x=x0"
GRID_TAUS = (0.25, 0.5, 0.75)
ESTIMATORS = ("uncorrected", "mar", "semiparametric_iv")
GRID_SELECTED = 1000          # fit_grid: selected rows (n ~ 1500)
CV_SELECTED = 700             # fit_cv: selected rows (n ~ 1050)
CDF_N = 200_000
CDF_PASSING = (0, 1)          # 200k samples whose cone projection converges
CDF_FAILING = 2               # 200k sample that exhausts the QP iteration cap
MC_N = 1000
MC_BATCH = 4                  # replications per simlab.run call
# Fewest replications the bias ordering is checked on. Over 160 replications
# the intercept errors of the two estimators have means 0.04 and 0.24, sds
# 0.11 and 0.09 and correlation 0.66; no subsample of 9 of them (20 000
# drawn) reversed the ordering. Set-up-only processes run one replication.
MC_BIAS_MIN_REPS = 9


@dataclass(frozen=True)
class Sample:
    d: np.ndarray
    y: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y_star: np.ndarray

    def take(self, rows) -> "Sample":
        return Sample(*(a[rows] for a in (self.d, self.y, self.w, self.x, self.y_star)))

    def save(self, stem: Path) -> dict:
        np.savez(f"{stem}.npz", d=self.d, y=self.y, w=self.w, x=self.x,
                 y_star=self.y_star)
        lines = ["d,y,w0,x0"]
        for d, y, w, x in zip(self.d.tolist(), self.y.tolist(),
                              self.w.tolist(), self.x.tolist()):
            lines.append(f"{d},{y!r},{w!r},{x!r}" if d else f"0,,{w!r},{x!r}")
        Path(f"{stem}.csv").write_text("\n".join(lines) + "\n")
        return {"csv": f"{stem}.csv", "npz": f"{stem}.npz"}


def load_sample(npz: str) -> Sample:
    with np.load(npz) as z:
        return Sample(z["d"], z["y"], z["w"], z["x"], z["y_star"])


def _draw(seed: int, n: int) -> Sample:
    from selqr import simlab
    gd = simlab.generate(simlab.SimulationSpec("C", "M2", n=n, reps=1, seed=seed), 0)
    data = gd.data
    return Sample(data.d.copy(), data.y.copy(), data.w[:, 0].copy(),
                  data.x[:, 0].copy(), gd.y_star.copy())


def _first_selected(seed: int, m: int) -> Sample:
    """Rows of generate(C, M2, n=2m, seed) up to the m-th selected one.

    Fixing the selected count fixes the size of every n_selected-squared
    kernel sum and LP, so the work per operation does not vary with the seed.
    """
    s = _draw(seed, 2 * m)
    cut = int(np.flatnonzero(s.d == 1)[m - 1]) + 1
    return s.take(slice(0, cut))


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of one run; return the manifest the worker reads."""
    if workload == "fit_grid":
        return {"sample": _first_selected(seed, GRID_SELECTED).save(workdir / "grid")}
    if workload == "fit_cv":
        return {"sample": _first_selected(seed, CV_SELECTED).save(workdir / "cv")}
    if workload == "cdf_large":
        # the passing samples are fixed draws whose rows the seed permutes;
        # the failing one is kept exactly as generate returns it
        samples = []
        for k, base in enumerate(CDF_PASSING):
            s = _draw(base, CDF_N)
            perm = np.random.default_rng([seed, k]).permutation(CDF_N)
            samples.append(s.take(perm).save(workdir / f"cdf{base}"))
        samples.append(_draw(CDF_FAILING, CDF_N).save(workdir / f"cdf{CDF_FAILING}"))
        return {"samples": samples, "failing": len(samples) - 1}
    if workload == "montecarlo":
        return {"seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """One workload inside a worker: `first`, then whole rounds of calls.

    Each call in `round()` performs `ops_per_call` operations and returns how
    many of them failed. `check` runs after peak memory has been read.
    """

    capture = None            # selqr function whose calls `check` inspects
    ops_per_call = 1

    def __init__(self, manifest: dict, workdir: Path, worker: int):
        self.manifest = manifest
        self.workdir = workdir
        self.worker = worker
        self.n_calls = 0
        self.captured: list = []

    def out_path(self, suffix: str) -> str:
        self.n_calls += 1
        return str(self.workdir / f"w{self.worker}-{self.n_calls}.{suffix}")


class FitGrid(Workload):
    """`selqr fit` of all three estimators at three quantile levels."""

    taus, estimators, truth_check = GRID_TAUS, ESTIMATORS, True
    extra_flags: tuple[str, ...] = ()

    def __init__(self, *a):
        super().__init__(*a)
        self.outputs = []      # (exit code, report path)

    def first(self) -> int:
        from selqr import cli
        out = self.out_path("json")
        rc = cli.main(["fit", "--data", self.manifest["sample"]["csv"], "--map", COLMAP,
                       "--tau", ",".join(map(str, self.taus)),
                       "--estimators", ",".join(self.estimators),
                       *self.extra_flags, "--out", out])
        self.outputs.append((rc, out))
        return int(rc != 0)

    def round(self):
        return [self.first]

    def check(self) -> list[str]:
        from checks import check_fit_report
        sample = load_sample(self.manifest["sample"]["npz"])
        fails, seen = [], set()
        for rc, out in self.outputs:
            if rc != 0:
                fails.append(f"selqr fit exited {rc}")
                continue
            digest = _digest(out)
            if digest in seen:
                continue
            if seen:
                fails.append("repeated fits of one input gave different reports")
            seen.add(digest)
            report = json.loads(Path(out).read_text())
            fails += check_fit_report(report, sample, self.taus, self.estimators,
                                      self.truth_check)
        return fails


class FitCV(FitGrid):
    """`selqr fit --bandwidth-mode cv` of semiparametric_iv at the median."""

    taus, estimators, truth_check = (0.5,), ("semiparametric_iv",), False
    extra_flags = ("--bandwidth-mode", "cv")
    capture = "inference.cv_bandwidths"

    def check(self) -> list[str]:
        from checks import check_cv_bandwidths
        fails = super().check()
        sample = load_sample(self.manifest["sample"]["npz"])
        if len(self.captured) != len(self.outputs):
            fails.append(f"{len(self.captured)} bandwidth selections for "
                         f"{len(self.outputs)} fits")
        seen = set()
        for args, _, bw in self.captured:
            V = np.asarray(args[0])
            key = hashlib.sha256(V.tobytes() + np.asarray(bw).tobytes()).hexdigest()
            if key not in seen:
                seen.add(key)
                fails += check_cv_bandwidths(V, bw, sample)
        return fails


class CdfLarge(Workload):
    """`selqr cdf` on 200 000-row CSVs, rotating over three samples."""

    def __init__(self, *a):
        super().__init__(*a)
        self.outputs = []      # (sample index, rc, stderr, path)

    def _op(self, k: int) -> int:
        from selqr import cli
        out = self.out_path("csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["cdf", "--data", self.manifest["samples"][k]["csv"],
                           "--map", COLMAP, "--out", out])
        self.outputs.append((k, rc, err.getvalue(), out))
        return int(rc != 0)

    def first(self) -> int:
        return self._op(0)

    def round(self):
        return [lambda k=k: self._op(k) for k in range(len(self.manifest["samples"]))]

    def check(self) -> list[str]:
        from checks import check_cdf, read_cdf_csv
        failing = self.manifest["failing"]
        fails, seen = [], {}
        for k, rc, err, out in self.outputs:
            if rc != 0:
                if k != failing or rc != 3 or "did not converge" not in err:
                    fails.append(f"selqr cdf on sample {k} exited {rc}: {err.strip()}")
                continue
            digest = _digest(out)
            if k in seen:
                if seen[k] != digest:
                    fails.append(f"repeated cdf runs on sample {k} differ")
                continue
            seen[k] = digest
            sample = load_sample(self.manifest["samples"][k]["npz"])
            fails += [f"sample {k}: {f}" for f in check_cdf(*read_cdf_csv(out), sample)]
        return fails


class MonteCarlo(Workload):
    """`simlab.run` of the three estimators; one operation is one replication."""

    ops_per_call = MC_BATCH

    def __init__(self, *a):
        super().__init__(*a)
        self.tables = []       # (replications asked for, MetricsTable or error)

    def _run(self, reps: int) -> int:
        from selqr import simlab
        from selqr.errors import NumericalError
        # a distinct replication stream per (run seed, worker, call)
        seed = (self.manifest["seed"] * 10 + self.worker) * 100_000 + len(self.tables)
        spec = simlab.SimulationSpec("C", "M2", n=MC_N, reps=reps, seed=seed)
        try:
            table = simlab.run(spec, n_jobs=1)
        except NumericalError as exc:
            self.tables.append((reps, str(exc)))
            return reps
        self.tables.append((reps, table))
        return len(table.excluded)

    def first(self) -> int:
        return self._run(1)

    def round(self):
        return [lambda: self._run(MC_BATCH)]

    def check(self) -> list[str]:
        from checks import check_mc_bias_order, check_mc_table
        fails = []
        errors = {"semiparametric_iv": [], "uncorrected": []}
        for reps, table in self.tables:
            if isinstance(table, str):
                fails.append(f"simlab.run failed: {table}")
                continue
            fails += check_mc_table(table, reps)
            for name, errs in errors.items():
                errs.extend(np.asarray(table.replications[name]["theta"])[:, 0]
                            - table.theta_true[0])
        if len(errors["uncorrected"]) >= MC_BIAS_MIN_REPS:
            fails += check_mc_bias_order(errors)
        return fails


WORKLOADS = {"fit_grid": FitGrid, "montecarlo": MonteCarlo,
             "cdf_large": CdfLarge, "fit_cv": FitCV}


if __name__ == "__main__":
    # python3 perfbench/workloads.py <workload> <seed> <directory>
    import sys
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    directory.mkdir(parents=True, exist_ok=True)
    print(json.dumps(make_inputs(name, seed, directory), indent=1))
