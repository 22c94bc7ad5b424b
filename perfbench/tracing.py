"""Spans and counts recorded around selqr's public functions.

Each traced function is replaced at every name a selqr module binds it to
(``qr.solve`` is also ``estimator.solve`` and ``baselines.solve``), so the
callers inside selqr reach the wrapper. A span is (name, start, end,
parent span, operation id); spans stay in memory until the run writes them
out. A layer's self time is its span's duration minus that of its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _cv_kernel_evals(args, kwargs):
    V = np.asarray(args[0])
    multipliers = kwargs.get("multipliers", args[1] if len(args) > 1 else None)
    max_rows = kwargs.get("max_rows", args[2] if len(args) > 2 else 2000)
    m = len(V)
    if m > max_rows:
        m = len(np.unique(np.linspace(0, m - 1, max_rows).round().astype(int)))
    n_mult = 12 if multipliers is None else len(multipliers)
    return n_mult * 2 * m * m * V.shape[1]


def _kernel_evals(args, kwargs):
    y_obs, v_obs, y_eval = args[0], args[1], args[2]
    d = np.asarray(v_obs).reshape(len(y_obs), -1).shape[1]
    return len(y_eval) * len(y_obs) * (1 + d)


def _qp_iterations(args, kwargs, result, exc):
    if result is not None:
        return result.iterations
    if "did not converge" in str(exc):
        cap = kwargs.get("max_iter", args[5] if len(args) > 5 else None)
        return cap if cap is not None else 100 * (len(args[4]) + 1)
    return 0


# traced function -> {count name: f(args, kwargs, result, exc)}
COUNTS = {
    "inference.conditional_density": {
        "inference.kernel_evals": lambda a, k, r, e: _kernel_evals(a, k)},
    "inference.cv_bandwidths": {
        "inference.cv_kernel_evals": lambda a, k, r, e: _cv_kernel_evals(a, k)},
    "qr.solve": {
        "qr.solve_calls": lambda a, k, r, e: 1,
        "qr.lp_rows": lambda a, k, r, e: int((np.asarray(a[0].w) > 0).sum())},
    "activeset.solve_qp": {"activeset.iterations": _qp_iterations},
    "data.ingest_csv": {
        "data.rows_read": lambda a, k, r, e: 0 if r is None else r.n},
    "baselines.probit_fit": {
        "baselines.probit_iterations": lambda a, k, r, e: 0 if r is None else r.iterations},
}

# functions that only feed a count and get no span of their own
COUNT_ONLY = {
    "first_stage.constraint_matrix": {
        "first_stage.constraint_rows": lambda a, k, r, e: 0 if r is None else len(r)},
}

SPANNED = (
    "cli.main", "data.ingest_csv", "basis.build_designs",
    "first_stage.estimate_unconstrained", "first_stage.cone_project",
    "first_stage.weights", "activeset.solve_qp", "qr.solve",
    "inference.covariance", "inference.conditional_density",
    "inference.cv_bandwidths", "distribution.corrected_cdf",
    "baselines.probit_fit", "estimator.fit_semiparametric_iv",
    "estimator.fit_uncorrected", "estimator.fit_mar",
    "simlab.run", "simlab.generate",
)

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "inference.conditional_density_s": ("inference.conditional_density",),
    "inference.covariance_s": ("inference.covariance",),
    "inference.cv_bandwidths_s": ("inference.cv_bandwidths",),
    "qr.solve_s": ("qr.solve",),
    "first_stage.estimate_unconstrained_s": ("first_stage.estimate_unconstrained",),
    "first_stage.cone_project_s": ("first_stage.cone_project",),
    "first_stage.weights_s": ("first_stage.weights",),
    "activeset.solve_qp_s": ("activeset.solve_qp",),
    "basis.build_designs_s": ("basis.build_designs",),
    "data.ingest_csv_s": ("data.ingest_csv",),
    "cli.self_s": ("cli.main",),
    "distribution.corrected_cdf_s": ("distribution.corrected_cdf",),
    "baselines.probit_fit_s": ("baselines.probit_fit",),
    "estimator.self_s": ("estimator.fit_semiparametric_iv",
                         "estimator.fit_uncorrected", "estimator.fit_mar"),
    "simlab.generate_s": ("simlab.generate",),
    "simlab.self_s": ("simlab.run",),
}

COUNT_METRICS = tuple(name for table in (COUNTS, COUNT_ONLY)
                      for counts in table.values() for name in counts)


def rebind(qualname: str, make_wrapper) -> None:
    """Replace selqr.<qualname> at every selqr module attribute bound to it."""
    module_name, attr = qualname.rsplit(".", 1)
    original = getattr(importlib.import_module(f"selqr.{module_name}"), attr)
    wrapper = make_wrapper(original)
    for name, module in list(sys.modules.items()):
        if name == "selqr" or name.startswith("selqr."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Tracer:
    """In-memory span and count recorder for one worker process."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1

    def install(self) -> None:
        for qualname in SPANNED:
            rebind(qualname, lambda fn, q=qualname: self._counted(COUNTS.get(q, {}), fn, q))
        for qualname, counts in COUNT_ONLY.items():
            rebind(qualname, lambda fn, c=counts: self._counted(c, fn))

    def start_op(self) -> None:
        self.op += 1

    def _count(self, counts, args, kwargs, result, exc):
        for name, fn in counts.items():
            self.counts[name] += fn(args, kwargs, result, exc)

    def _counted(self, counts, fn, name=None):
        """Wrap fn to add its counts and, when name is given, record a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name:
                span = [name, time.perf_counter(), 0.0,
                        self.stack[-1] if self.stack else None, self.op]
                self.stack.append(len(self.spans))
                self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                if name:
                    span[2] = time.perf_counter()
                    self.stack.pop()
                self._count(counts, args, kwargs, result, exc)
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric, per operation."""
        own = self.self_times()
        metrics = {metric: sum(own.get(s, 0.0) for s in spans) / n_ops
                   for metric, spans in SELF_TIME.items()}
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0.0) / n_ops
        return metrics


class Capture:
    """Keeps the arguments and result of every call to one function."""

    def __init__(self, qualname: str):
        self.calls: list[tuple] = []
        rebind(qualname, self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((args, kwargs, result))
            return result
        return wrapper
