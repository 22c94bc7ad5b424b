"""Steadiness runs: the benchmark once per seed, summarised per metric.

    python3 perfbench/steady.py --seeds 0-9 [--workloads fit_grid,cdf_large] [--trace 1]

For each workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4), their distance as a share of
the median, and the metric's bound from BENCHMARK.json, as a Markdown
table; all values go to perfbench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0-9", type=seed_list)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            t = time.monotonic()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.monotonic() - t
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {json.dumps(result)}", file=sys.stderr)

    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, results in runs.items():
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {workload} | {m['name']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.3f} | {m.get('bound', '')} |")
        shares = {r["failed"] / r["attempted"] for r in results}
        walls = [r["wall_s"] for r in results]
        print(f"| {workload} | failed/attempted | {sorted(shares)} | | | | |")
        print(f"| {workload} | wall_s per run | {statistics.median(walls):.1f} "
              f"| {min(walls):.1f} | {max(walls):.1f} | | |")
        if not all(r["correct"] for r in results):
            print(f"| {workload} | NOT CORRECT on some seed | | | | | |")
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
