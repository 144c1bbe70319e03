"""One worker process: set up once, run a closed loop, check.

Started by `run.py` with the thread-pool pins already in its environment.
Writes one JSON document to `--result`; everything else goes to stderr.

The closed loop has one client: a run starts only after the previous one
has ended, and runs repeat until their summed wall time reaches `--seconds`
(at least one run).  `run.py` starts several such workers one after the
other and pools their runs, so that one process's luck (its memory layout,
its hash seed, the machine's speed while it ran) weighs on only a share of
the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy as np

    from spans import PER_LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)

    tracer = Tracer() if args.trace else None
    walls: list[float] = []
    per_run: list[dict] = []
    shares: list[dict] = []
    span_names: set[str] = set()
    attempted = failed = 0
    digest = None
    notes: list[str] = []
    t0 = time.perf_counter()
    state = wl.setup(args.seed, args.toy)
    setup_s = time.perf_counter() - t0
    setup_rss = _rss_mb()
    if tracer:
        tracer.install()
    while not walls or sum(walls) < args.seconds:
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        out = wl.run(state)
        wall = time.perf_counter() - t0
        walls.append(wall)
        attempted += out.attempted
        failed += out.failed
        notes += out.notes
        if digest is None:
            digest = out.digest
        elif out.digest != digest:
            failed += out.attempted - out.failed
            notes.append(f"run {len(walls)} output digest differs from run 1")
        if tracer:
            per_run.append(tracer.run_metrics())
            shares.append(tracer.layer_shares(wall))
            span_names |= tracer.span_names()
    if tracer:
        tracer.uninstall()
    # untimed checks of the outputs
    check_errors = wl.check(state)
    peak_rss = _rss_mb()
    if tracer:
        counts = [n for n, unit in PER_LAYER_METRICS if unit == "count"]
        varied = [n for n in counts if len({r[n] for r in per_run}) > 1]
        if varied:
            failed = attempted
            notes.append(f"work counts differ between runs: {varied}")
    if check_errors:
        failed = attempted
        notes += check_errors
    failed = min(failed, attempted)

    result = {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "digest": digest,
        "setup_s": setup_s,
        "setup_rss_mb": setup_rss,
        "walls": walls,
        "peak_rss_mb": peak_rss,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if tracer:
        # counts repeat exactly from run to run; times take the median
        result["layers"] = {
            n: (statistics.median_low if unit == "count" else statistics.median)(
                r[n] for r in per_run
            )
            for n, unit in PER_LAYER_METRICS
            if not n.startswith("trace.")
        }
        result["layer_shares"] = {
            k: statistics.median(s[k] for s in shares) for k in shares[0]
        }
        result["spans"] = sorted(span_names)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
