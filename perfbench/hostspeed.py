"""A fixed computation that measures how fast the host runs at the moment.

The benchmark runs on shared hosts whose speed changes by up to 2.3x for
tens of seconds at a time (see README, "Host speed"). Every process of a run
times this reference next to its operations, and run.py reports each
operation time scaled by NOMINAL_S / (the reference's time next to it): the
time the operation would take on the host at the speed at which the
reference takes NOMINAL_S.

The reference imports nothing from selqr, so no change to selqr moves it.
It does the kinds of work selqr's operations do, in a fixed mix: Gaussian
kernel sums over a pairwise-difference array (as `inference` does), a small
HiGHS LP (as `qr` does), and parsing numbers out of CSV text (as `data`
does).
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np
from scipy.optimize import linprog

# a round figure within the reference's wall times on the 2-vCPU development
# host (0.07 to 0.12 s); it is only the unit of the scaled times, so another
# host needs no other value
NOMINAL_S = 0.1


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20251120)
        self.v = rng.standard_normal((450, 3))
        n, p = 500, 4
        a = rng.standard_normal((n, p))
        self.lp = dict(c=np.r_[np.zeros(p), np.full(2 * n, 0.5)],
                       A_eq=np.c_[a, np.eye(n), -np.eye(n)],
                       b_eq=a @ np.ones(p) + rng.standard_t(3, n),
                       bounds=[(None, None)] * p + [(0, None)] * (2 * n))
        self.text = "\n".join(f"{i},{x!r},{y!r}" for i, (x, y)
                              in enumerate(rng.standard_normal((20_000, 2)).tolist()))

    def kernel(self) -> float:
        total = 0.0
        for h in (0.2, 0.4, 0.8):
            d = (self.v[:, None, :] - self.v[None, :, :]) / h
            total += float(np.exp(-0.5 * (d * d).sum(axis=-1)).sum())
        return total

    def lp_solve(self) -> float:
        return float(linprog(method="highs", **self.lp).fun)

    def parse(self) -> float:
        return sum(float(r[1]) - float(r[2]) for r in csv.reader(io.StringIO(self.text)))

    def __call__(self) -> float:
        """Wall time of one run of the reference, in seconds."""
        t = time.perf_counter()
        self.kernel()
        self.lp_solve()
        self.parse()
        return time.perf_counter() - t
