"""Command-line surface: fit, simulate, cdf.

Exit codes: 0 success, 2 input error or unusable path, 3 numerical failure.
All outputs are deterministic functions of (config, data); `simulate` also
of its seed. Reports embed the config hash and package version, never
timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, distribution, estimator, first_stage, simlab
from .basis import BasisPlan, default_plan
from .data import ColumnMap, ingest_csv
from .errors import InputError, NumericalError


@dataclass(frozen=True)
class RunConfig:
    taus: tuple[float, ...] = (0.5,)
    y_interior_knots: int = 0
    w_interior_knots: int = 2
    bandwidth_mode: str = "rot"
    estimators: tuple[str, ...] = ("semiparametric_iv",)

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(self.taus))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not all(0.0 < t < 1.0 for t in self.taus):
            raise InputError("every tau must lie strictly inside (0, 1)")
        if min(self.y_interior_knots, self.w_interior_knots) < 0:
            raise InputError("interior knot counts must be >= 0")
        if self.bandwidth_mode not in ("rot", "cv"):
            raise InputError("bandwidth mode must be 'rot' or 'cv'")
        estimator.check_names(self.estimators)

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def parse_column_map(text: str) -> ColumnMap:
    """Parse 'd=del,y=wage,w=iw,x=age+educ' into a ColumnMap."""
    parts = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise InputError(f"bad column map chunk {chunk!r}; expected key=value")
        key, val = chunk.split("=", 1)
        key = key.strip()
        if key not in ("d", "y", "w", "x"):
            raise InputError(f"unknown column map key {key!r}; expected d, y, w or x")
        if key in parts:
            raise InputError(f"column map repeats '{key}='")
        parts[key] = tuple(v.strip() for v in val.split("+") if v.strip())
    for key in ("d", "y", "w"):
        if key not in parts or not parts[key]:
            raise InputError(f"column map is missing '{key}='")
    if len(parts["d"]) != 1 or len(parts["y"]) != 1:
        raise InputError("d= and y= take exactly one column each")
    return ColumnMap(d_column=parts["d"][0], y_column=parts["y"][0],
                     w_columns=parts["w"], x_columns=parts.get("x", ()))


def cmd_fit(config: RunConfig, data) -> dict:
    """Run the requested estimators at every tau; return the report dict."""
    keywords = {}
    if "semiparametric_iv" in config.estimators:
        # only then, so a knot error cannot fail a run that does not use it
        keywords["semiparametric_iv"] = {"plan": default_plan(
            data, config.y_interior_knots, config.w_interior_knots)}
    # each estimator fits every level at once; the report keeps tau outer
    fits = {name: estimator.fit(data, config.taus, name,
                                bandwidth_mode=config.bandwidth_mode,
                                **keywords.get(name, {}))
            for name in config.estimators}
    estimates = []
    for i, tau in enumerate(config.taus):
        for name in config.estimators:
            qf = fits[name][i]
            estimates.append({
                "tau": tau,
                "estimator": name,
                "labels": list(qf.labels),
                "theta": qf.theta.tolist(),
                "sigma": qf.sigma.tolist(),
                "se": qf.se.tolist(),
                "ci": qf.ci.tolist(),
                "diagnostics": qf.diagnostics,
            })
    return {"config_hash": config.hash(), "version": __version__,
            "config": config.to_dict(), "estimates": estimates}


def cmd_cdf(data, plan: BasisPlan) -> list[tuple[float, float, float]]:
    """(y, corrected F, empirical F) on the selected outcome grid.

    The corrected CDF weighs rows by the pointwise weights max(g_u, 1),
    which the cone projection does not change, so it is not run. Under unit
    weights the same step function is the empirical CDF, on the same grid.
    """
    fs = first_stage.estimate_unconstrained(data, plan)
    corrected = distribution.corrected_cdf(fs, data)
    y_sel = data.y[data.selected]
    empirical = distribution.CorrectedCDF.from_values(y_sel, np.ones(len(y_sel)))
    return list(zip(corrected.support.tolist(), corrected.cum_weights.tolist(),
                    empirical.cum_weights.tolist()))


def _cdf_csv(rows) -> str:
    # the bytes csv.writer gives: repr of each float, "\r\n" line ends
    return "".join(["y,cdf_corrected,cdf_empirical\r\n",
                    *(f"{y!r},{c!r},{e!r}\r\n" for y, c, e in rows)])


def _emit(text: str, out) -> None:
    """Write text to the file out as UTF-8, or to stdout when out is unset."""
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _add_basis_flags(p):
    # every default is RunConfig's, so it is stated once
    for name in ("y_interior_knots", "w_interior_knots"):
        p.add_argument("--" + name.replace("_", "-"), type=int,
                       default=getattr(RunConfig, name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selqr",
        description="Selection-corrected quantile regression under "
                    "outcome-dependent missingness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit estimators to a CSV dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--map", required=True,
                       help="column map, e.g. d=d,y=y,w=w0,x=x0+x1")
    p_fit.add_argument("--tau", default=",".join(map(str, RunConfig.taus)),
                       help="comma-separated levels")
    p_fit.add_argument("--estimators", default=",".join(RunConfig.estimators),
                       help="comma-separated subset of "
                            "uncorrected,mar,semiparametric_iv")
    _add_basis_flags(p_fit)
    p_fit.add_argument("--bandwidth-mode", choices=("rot", "cv"),
                       default=RunConfig.bandwidth_mode)
    p_fit.add_argument("--out", help="report JSON path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo harness")
    p_sim.add_argument("--setting", choices=simlab.SETTINGS, required=True)
    p_sim.add_argument("--mechanism", choices=simlab.MECHANISMS, required=True)
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--tau", type=float, default=0.5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--estimators",
                       default="uncorrected,mar,semiparametric_iv")
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.add_argument("--out", help="output prefix for <out>.csv/<out>.json")

    p_cdf = sub.add_parser("cdf", help="corrected vs empirical CDF table")
    p_cdf.add_argument("--data", required=True)
    p_cdf.add_argument("--map", required=True)
    _add_basis_flags(p_cdf)
    p_cdf.add_argument("--out", help="CSV path (default: stdout)")
    return parser


def _run(args) -> int:
    if args.command == "fit":
        try:
            taus = tuple(float(t) for t in args.tau.split(","))
        except ValueError:
            raise InputError(f"--tau takes comma-separated numbers, "
                             f"got {args.tau!r}") from None
        config = RunConfig(
            taus=taus, y_interior_knots=args.y_interior_knots,
            w_interior_knots=args.w_interior_knots,
            bandwidth_mode=args.bandwidth_mode,
            estimators=tuple(e.strip() for e in args.estimators.split(",")))
        data = ingest_csv(args.data, parse_column_map(args.map))
        estimator.check_columns(data)
        report = cmd_fit(config, data)
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
        return 0

    if args.command == "simulate":
        spec = simlab.SimulationSpec(
            setting=args.setting, mechanism=args.mechanism, n=args.n,
            reps=args.reps, tau=args.tau, seed=args.seed,
            estimators=tuple(e.strip() for e in args.estimators.split(",")))
        table = simlab.run(spec, n_jobs=args.jobs)
        _emit(table.format() + "\n", None)
        if args.out:
            _emit(table.csv(), args.out + ".csv")
            _emit(json.dumps(table.to_dict(), indent=2, sort_keys=True) + "\n",
                  args.out + ".json")
        return 0

    if args.command == "cdf":
        data = ingest_csv(args.data, parse_column_map(args.map))
        estimator.check_columns(data)
        # the rows are freed once they are text, before the text is written
        _emit(_cdf_csv(cmd_cdf(data, default_plan(
            data, args.y_interior_knots, args.w_interior_knots))), args.out)
        return 0
    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
