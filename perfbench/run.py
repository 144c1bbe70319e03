"""Benchmark entry point for the infodemic package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each call starts fresh worker processes (see `worker.py`) with
BLAS/OpenMP pools pinned to at most the usable core count, so no state
carries over between runs.

`--trace 0` runs the workload untraced in `WORKERS` processes one after
the other, each setting up once and then running for its share of
`--seconds`, and reports the end-to-end metrics: set-up time, RSS after
set-up and peak RSS (each the median over the workers), and the median wall
time of one run over the pooled runs of all workers.  `--trace 1` runs the
workload in two processes, untraced and then with span recorders installed
(`spans.py`), each for half of `--seconds`, and reports the per-layer
metrics of the traced process; the difference of the two median walls is
the tracing overhead.  The last stdout line is the JSON result; the line
before it records the environment and the output digest; a readable summary
goes to stderr.  `--toy` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout
from spans import PER_LAYER_METRICS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# worker processes per untraced run; `setup_s` is the median of their set-ups
WORKERS = {"pipeline-2e4": 4, "sweep-5e4": 3}
WORKLOADS = tuple(WORKERS)
# every worker must have ended this long after start
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted((SRC / "infodemic").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _run_worker(args, tag: str, trace: int, seconds: float, workdir: Path,
                deadline: float) -> dict:
    result = workdir / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir / tag), "--result", str(result),
    ] + (["--toy"] if args.toy else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} exceeded the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _summary(name: str, r: dict) -> None:
    walls = r["walls"]
    print(
        f"[{name}] wall_s median {statistics.median(walls):.4f} over {len(walls)} run(s) "
        f"(min {min(walls):.4f}, max {max(walls):.4f}); set-up {r['setup_s']:.4f}; "
        f"failed {r['failed']}/{r['attempted']} "
        f"(failed_frac {r['failed'] / r['attempted']:.4f})",
        file=sys.stderr,
    )
    for line in r["notes"]:
        print(f"[{name}]   {line}", file=sys.stderr)
    if "layer_shares" in r:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in r["layer_shares"].items())
        print(f"[{name}]   self time share of wall: {shares}", file=sys.stderr)


def _measure(args, workdir: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if not args.trace:
        workers = WORKERS[args.workload]
        runs = []
        for i in range(workers):
            runs.append(
                _run_worker(args, f"worker{i}", 0, args.seconds / workers, workdir, deadline)
            )
            _summary(f"worker {i + 1}", runs[-1])
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
            "setup_rss_mb": (statistics.median(r["setup_rss_mb"] for r in runs), "MB"),
            "wall_s": (statistics.median(w for r in runs for w in r["walls"]), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }
    else:
        plain = _run_worker(args, "untraced", 0, args.seconds / 2, workdir, deadline)
        _summary("untraced", plain)
        traced = _run_worker(args, "traced", 1, args.seconds / 2, workdir, deadline)
        _summary("traced", traced)
        traced_wall = statistics.median(traced["walls"])
        values = dict(traced["layers"])
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(plain["walls"])
        metrics = {n: (values[n], unit) for n, unit in PER_LAYER_METRICS}
        runs = [plain, traced]
    if len({r["digest"] for r in runs}) > 1:
        # one seed must give the same outputs in every process, traced or not
        runs[-1]["failed"] = runs[-1]["attempted"]
        print("outputs differ between worker processes", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": runs[0]["digest"],
        "runs": [len(r["walls"]) for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "env": {
            "nproc": _nproc(),
            "git_revision": _git_revision(),
            "source_sha256": _source_digest(),
            "cpu": _cpu_model(),
            **runs[0]["env"],
        },
    }
    if args.trace:
        info["spans"] = runs[1]["spans"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="toy-size inputs (self-test)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "infodemic" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    # a terminated benchmark still stops (and waits for) its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        info, result = _measure(args, workdir)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
