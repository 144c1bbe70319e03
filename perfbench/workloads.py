"""The benchmark's two workloads: set-up, one timed run, and its checks.

Each workload runs on a replica with the `ReplicaConfig` defaults, replica
seed included (the CLI pipeline at 2e4 users, the sweep on acceptance
criterion 5's replica), and the benchmark seed drives the experiments on
it: the CLI `--seed` and the sweep's base seed.  Each `run()` call is one closed-loop
batch of operations and returns a digest of its outputs, so repeated runs
of one seed can be compared byte for byte.  The workloads are chosen so
that the layers the open ROADMAP items change do most of the work in one
workload and almost none in another.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import shutil
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

# Package functions are called through their modules, so that the span
# recorders `spans.Tracer` installs on those modules see every call.
from infodemic import cascade, cli, counterfactual, graph, replica
from infodemic.cascade import Cascade
from infodemic.counterfactual import (
    CORRECTIVE_RATE_LEVELS,
    MISINFO_RATE_LEVELS,
    REAL_CORRECTIVE_RT_RATE,
)
from infodemic.replica import ReplicaConfig

# replica user counts at benchmark scale and at the self-test's toy scale
FULL_USERS = {"pipeline-2e4": 20_000, "sweep-5e4": 50_000}
TOY_USERS = {"pipeline-2e4": 2_000, "sweep-5e4": 3_000}
# pipeline warm-up size: pays lazy imports and first-touch costs (~1 s)
WARMUP_USERS = 2_000

SWEEP_TRIALS = 1
# the CLI pipeline's own experiment sizes; its sweep is one corrective rate
# against the 7 misinformation levels
PIPELINE_WHATIF_TRIALS = 3
PIPELINE_SWEEP_TRIALS = 2


@dataclass
class Outcome:
    """Result of one timed run."""

    attempted: int
    failed: int
    digest: str
    notes: list[str] = field(default_factory=list)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _finite(x: float) -> bool:
    return isinstance(x, float) and math.isfinite(x)


# -- pipeline-2e4 ------------------------------------------------------------
# The end-to-end CLI path the ROADMAP names.  Graph generation, five edge
# loads and one save dominate (item 2: array-native graph, ~80% of a pass);
# cascades are sparse, so the cascade and exposure layers take under a fifth.
# Its what-if command is the benchmark's only replay of recorded cascades
# (pruning, keep-set sampling, exposure recount).  It runs at 2e4 users
# (~172k edges, a pass of ~5 s) rather than the calibrated 1e5 (~35 s), so
# that one benchmark run holds several passes and reports their median.
# Every command reloads its CSVs as it does for real users.  No thread-count
# flag is passed: the ROADMAP plans to delete it, and the benchmark must not
# need edits.


@dataclass
class PipelineState:
    config: ReplicaConfig
    seed: int
    generated_edges: int = -1


def _pipeline_once(config: ReplicaConfig, seed: int, d: str) -> tuple[Outcome, int]:
    """Generate the inputs into `d`, then run the CLI commands on them.

    Paths are relative to the working directory, so the `#` headers the
    CLI writes (which embed its arguments) are the same in every process.
    """
    shutil.rmtree(d, ignore_errors=True)
    inp, out = os.path.join(d, "in"), os.path.join(d, "out")
    os.makedirs(inp)
    rep = replica.build_replica(config)
    edges = os.path.join(inp, "edges.csv")
    seeds = os.path.join(inp, "seeds.csv")
    sales = os.path.join(inp, "sales.csv")
    graph.save_edges(rep.graph, edges)
    cascade.save_cascades(
        [Cascade(s, ()) for s in rep.seed_tweets],
        seeds,
        os.path.join(inp, "seed_retweets.csv"),
        rep.graph,
    )
    rep.sales.to_csv(sales)
    start, end = config.period
    period = f"{start.isoformat()}..{end.isoformat()}"
    tweets, retweets = os.path.join(out, "tweets.csv"), os.path.join(out, "retweets.csv")
    model = os.path.join(out, "model.json")
    dataset = ["--graph", edges, "--tweets", tweets, "--retweets", retweets, "--period", period]
    commands = [
        ["simulate", "--graph", edges, "--tweets", seeds, "--period", period,
         "--seed", str(seed), "--out", out],
        ["exposure", *dataset, "--out", out],
        ["fit", *dataset, "--sales", sales, "--k", "4", "--out", out],
        ["whatif", *dataset, "--model", model, "--trials", str(PIPELINE_WHATIF_TRIALS),
         "--seed", str(seed), "--out", out],
        ["sweep", "--graph", edges, "--tweets", tweets, "--period", period, "--model", model,
         "--corrective-rate", repr(REAL_CORRECTIVE_RT_RATE),
         "--trials", str(PIPELINE_SWEEP_TRIALS), "--seed", str(seed), "--out", out],
    ]
    failed = 0
    notes = []
    for argv in commands:
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit) as e:  # a crashing command is a failed operation
            code = f"raised {type(e).__name__}: {e}"
        if code != 0:
            failed += 1
            notes.append(f"{argv[0]} exited {code}")
    blobs = []
    for sub in (inp, out):
        for name in sorted(os.listdir(sub)):
            with open(os.path.join(sub, name), "rb") as fh:
                blobs += [name.encode(), fh.read()]
    return Outcome(len(commands), failed, _digest(*blobs), notes), rep.graph.n_edges


def pipeline_setup(seed: int, toy: bool) -> PipelineState:
    """Warm the interpreter with the same pipeline at a small size, so lazy
    imports and first-touch file and allocator costs are paid before timing."""
    users = (TOY_USERS if toy else FULL_USERS)["pipeline-2e4"]
    warm, _ = _pipeline_once(ReplicaConfig(n_users=min(users, WARMUP_USERS)), seed, "warmup")
    if warm.failed:
        raise RuntimeError(f"pipeline warm-up failed: {warm.notes}")
    return PipelineState(ReplicaConfig(n_users=users), seed)


def pipeline_run(st: PipelineState) -> Outcome:
    outcome, st.generated_edges = _pipeline_once(st.config, st.seed, "pipeline")
    return outcome


def pipeline_check(st: PipelineState) -> list[str]:
    """The edge file the commands loaded must hold every generated edge."""
    loaded = graph.load_edges_file(os.path.join("pipeline", "in", "edges.csv")).n_edges
    if loaded != st.generated_edges:
        return [f"loaded {loaded} edges, generated {st.generated_edges}"]
    return []


# -- sweep-5e4 ---------------------------------------------------------------
# The rate-grid sweep of acceptance criterion 5 over the full 6 x 7 default
# grid.  Cascade simulation is ~88% of it and exposure ~11%; the graph is
# built only in set-up.  All cells of a trial share their per-(tweet, user)
# draws, which is the shared work that batching the cells of a trial
# (ROADMAP item 3) removes; in the pipeline the sweep is one row of 7 cells
# on sparse cascades, a small share of its time.


@dataclass
class SweepState:
    replica: object
    model: object
    seed: int


def sweep_setup(seed: int, toy: bool) -> SweepState:
    users = (TOY_USERS if toy else FULL_USERS)["sweep-5e4"]
    cfg = ReplicaConfig(
        n_users=users,
        min_degree=6,
        misinfo_day_fraction=0.0,
        misinfo_author_ranks=(0.0, 0.003),
    )
    rep = replica.build_replica(cfg)
    return SweepState(rep, replica.reference_model(cfg.n_users, cfg.period), seed)


def sweep_run(st: SweepState) -> Outcome:
    r = st.replica
    try:
        grid = counterfactual.sweep(
            r.graph, r.seed_tweets, st.model,
            corrective_rates=CORRECTIVE_RATE_LEVELS,
            misinfo_rates=MISINFO_RATE_LEVELS,
            trials=SWEEP_TRIALS, base_seed=st.seed, period=r.config.period,
        )
    except Exception:
        traceback.print_exc()
        return Outcome(1, 1, "", ["sweep raised"])
    notes = []
    sums = []
    for m in MISINFO_RATE_LEVELS:
        for c in CORRECTIVE_RATE_LEVELS:
            try:
                cell = grid.cell(m, c)
            except ValueError:
                notes.append(f"cell ({m}, {c}) missing")
                continue
            if len(cell.sums) != SWEEP_TRIALS or not all(_finite(s) for s in cell.sums):
                notes.append(f"cell ({m}, {c}) sums {cell.sums!r}")
            sums += cell.sums
    if len(grid.cells) != len(MISINFO_RATE_LEVELS) * len(CORRECTIVE_RATE_LEVELS):
        notes.append(f"{len(grid.cells)} cells")
    return Outcome(1, 1 if notes else 0, _digest(repr(sums).encode()), notes)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, bool], object]  # (seed, toy) -> state
    run: Callable[[object], Outcome]  # one timed run
    check: Callable[[object], list[str]] = lambda st: []  # after the runs, untimed


WORKLOADS = {
    "pipeline-2e4": Workload(pipeline_setup, pipeline_run, pipeline_check),
    "sweep-5e4": Workload(sweep_setup, sweep_run),
}
