"""Toy-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at toy size through `run.py`, untraced and traced, and
checks that:
- each result line has exactly the contract's keys, no failures, and every
  metric that BENCHMARK.json names for that mode with its unit;
- between them the traced runs record a span for every per-layer metric;
- one seed gives the same output digest and the same work counts in
  separate processes, traced or not;
- without the package sources the benchmark exits non-zero and prints no
  result.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from spans import SPAN_GROUPS  # noqa: E402

SEED = 7


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    count_metrics = [n for n, u in wanted[1].items() if u == "count"]
    problems: list[str] = []
    spans: set[str] = set()
    for w in WORKLOADS:
        digests = set()
        counts = []
        for trace in (0, 1, 1):
            code, lines = _bench(w, trace)
            tag = f"{w} trace {trace}"
            if code != 0 or len(lines) < 2:
                problems.append(f"{tag}: exit {code}, {len(lines)} stdout lines")
                continue
            info, res = json.loads(lines[-2])["info"], json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"{tag}: correct={res.get('correct')} "
                                f"failed={res.get('failed')} attempted={res.get('attempted')}")
            got = {n: m.get("unit") for n, m in res.get("metrics", {}).items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                                "missing or unexpected, or units differ")
            bad = [n for n, m in res.get("metrics", {}).items()
                   if not isinstance(m.get("value"), (int, float))]
            if bad:
                problems.append(f"{tag}: non-numeric values {bad}")
            digests.add(info["digest"])
            if trace:
                spans |= set(info["spans"])
                counts.append({n: res["metrics"][n]["value"] for n in count_metrics})
            print(f"ok  {tag}", file=sys.stderr)
        if len(digests) != 1:
            problems.append(f"{w}: output digests differ between processes: {digests}")
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{w}: work counts differ between processes")
    missing = sorted(g for g, names in SPAN_GROUPS.items() if not spans & set(names))
    if missing:
        problems.append(f"span groups never recorded: {missing}")

    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = _bench(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        problems.append(f"without sources: exit {code}, stdout {lines}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "PASS", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
