"""One fresh, single-threaded benchmark process (started by run.py).

It times `import selqr` plus the first operation (the cold start) and then
the host-speed reference (hostspeed.py) a few times. Unless it is a
set-up-only process, it then runs whole rounds of operations for the
requested seconds, timing the reference before each call. Peak memory is
read before any check runs. The last line of standard output is this
process's result as JSON.

    python3 perfbench/worker.py <workload> <manifest.json> <worker> <seconds> <mode>

mode is "setup" (cold start only), "timed" or "trace".
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REFS = 3              # reference runs after the cold start


def main(workload, manifest_path, worker, seconds, mode):
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import selqr  # noqa: F401  (the cold start users of the CLI pay)
    import_s = time.perf_counter() - t0
    if Path(selqr.__file__).resolve().parent != ROOT / "src" / "selqr":
        raise SystemExit(f"imported selqr from {selqr.__file__}, not from {ROOT}/src")

    import hostspeed
    import tracing
    from workloads import WORKLOADS
    manifest_path = Path(manifest_path)
    wl = WORKLOADS[workload](json.loads(manifest_path.read_text()),
                             manifest_path.parent, worker)
    if wl.capture:
        wl.captured = tracing.Capture(wl.capture).calls

    t1 = time.perf_counter()
    wl.first()
    first_op_s = time.perf_counter() - t1
    reference = hostspeed.Reference()
    setup_refs = [reference() for _ in range(SETUP_REFS)]

    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    op_times, ref_times, attempted, failed, busy, round_s = [], [], 0, 0, 0.0, 0.0
    # whole rounds only, and no round that the last one says would end
    # past the requested seconds (but at least one)
    while mode != "setup" and (not op_times or busy + round_s <= seconds):
        round_start = busy
        for call in wl.round():
            ref_times.append(reference())
            if tracer:
                tracer.start_op()
            t = time.perf_counter()
            failed += call()
            dt = time.perf_counter() - t
            busy += dt
            attempted += wl.ops_per_call
            op_times.append(dt / wl.ops_per_call)
        round_s = busy - round_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "worker": worker, "mode": mode, "import_s": import_s,
        "first_op_s": first_op_s, "setup_s": import_s + first_op_s,
        "setup_refs": setup_refs, "op_times": op_times, "ref_times": ref_times,
        "ops_per_call": wl.ops_per_call, "busy_s": busy,
        "attempted": attempted, "failed": failed, "peak_rss_mb": peak_rss_mb,
        "threads": _threads(),
    }
    if tracer:
        result["per_layer"] = tracer.per_layer(attempted)
        spans_path = manifest_path.parent / f"spans-w{worker}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans"] = str(spans_path)
    t2 = time.perf_counter()
    result["failures"] = wl.check()
    result["check_s"] = time.perf_counter() - t2
    print(json.dumps(result))


def _threads():
    """Operating-system threads of this process (Linux), else None."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


if __name__ == "__main__":
    name, manifest, worker, seconds, mode = sys.argv[1:]
    main(name, manifest, int(worker), float(seconds), mode)
