"""What-if experiments: corrective-RT reduction, the misinformation-gated
retweet guideline, and the RT-rate grid sweep.

All experiments run against an immutable graph and a fitted sales model;
each trial derives its own RNG stream from (base seed, cell, trial) so
grids are reproducible and trials independent.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from datetime import date
from statistics import mean, pstdev
from typing import Mapping, Sequence

import numpy as np

from ._rng import derive_seed
from ._table import write_table
from .cascade import (
    LANES,
    Cascade,
    SeedTweet,
    TweetCategory,
    _actors,
    _check_run,
    _events,
    _keep_size,
    _lane_mask,
    _lane_runs,
    _prune,
    _reach,
    _with_neighbors,
    sample_keep_set,
    simulate_cascades,
)
from .exposure import (
    _CATEGORY_BITS,
    ExposureMatrix,
    _category_code,
    _code_counts,
    _lane_tally,
    _matrix,
    exposure_matrix,
    total_exposures,
)
from .graph import SocialGraph
from .salesmodel import FittedSalesModel, predict, sum_index

log = logging.getLogger("infodemic.counterfactual")

# the six corrective RT-rate levels studied, highest (real) first, and the
# retention fraction of real corrective retweeters each one represents
CORRECTIVE_RATE_LEVELS: tuple[float, ...] = (0.0079, 0.0063, 0.0047, 0.0032, 0.0016, 0.0)
MISINFO_RATE_LEVELS: tuple[float, ...] = (0.0, 0.00186, 0.01, 0.02, 0.03, 0.04, 0.05)
REAL_CORRECTIVE_RT_RATE = 0.0079
REAL_MISINFO_RT_RATE = 0.00186
REAL_SOLDOUT_RT_RATE = 0.004


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class TrialResult:
    matrix: ExposureMatrix
    sum_index: float
    corrective_retweeters_kept: int | None = None

    @property
    def totals(self) -> np.ndarray:
        return total_exposures(self.matrix)


@dataclass(frozen=True)
class SweepCell:
    misinfo_rate: float
    corrective_rate: float
    sums: tuple[float, ...]

    @property
    def mean(self) -> float:
        return mean(self.sums)

    @property
    def stddev(self) -> float:
        return pstdev(self.sums)


@dataclass(frozen=True)
class SweepGrid:
    cells: tuple[SweepCell, ...]
    trials: int

    def cell(self, misinfo_rate: float, corrective_rate: float) -> SweepCell:
        for c in self.cells:
            if c.misinfo_rate == misinfo_rate and c.corrective_rate == corrective_rate:
                return c
        raise ExperimentError(f"no cell ({misinfo_rate}, {corrective_rate})")


def _time_ranks(events: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Dense ranks of `EVENT` rows by time, (day, later, seq): a row set
    in the bool array `later` ranks after every other row of its day.
    Equal times tie."""
    keys = np.stack([events["day"], later, events["seq"]], axis=1)
    # flattened: numpy 2.0.0 gives the inverse the dimensions of `keys`
    return np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)


def _replay(
    graph: SocialGraph,
    model: FittedSalesModel,
    period: tuple[date, date],
    fixed: Sequence[Cascade],
    corrective: Sequence[Cascade],
    kept: np.ndarray,
) -> list[TrialResult]:
    """One result per lane of `_prune`'s (events, lanes) mask `kept`: the
    exposure of the `fixed` cascades, none of them corrective, and of the
    `corrective` cascades holding only the events kept in that lane.

    The category code of `fixed` is built once.  Each group of `LANES`
    lanes adds the reach of its corrective posts to its counts in one tally.
    """
    code = _category_code(graph, fixed, period)
    counts = _code_counts(code)
    acts = _actors(corrective)
    # every lane's posts: each seed author, then the kept retweets
    posts = np.concatenate([np.ones((len(corrective), kept.shape[1]), dtype=bool), kept])
    results = []
    for group in range(0, kept.shape[1], LANES):
        lanes = posts[:, group : group + LANES].T
        masks = _lane_mask(lanes, np.min_scalar_type((1 << len(lanes)) - 1))
        reach, reach_lanes = _reach(graph, acts["user"], acts["day"], masks, period)
        bit = _CATEGORY_BITS[TweetCategory.CORRECTIVE]
        tallies = _lane_tally(code, counts, reach, reach_lanes, bit, len(lanes))
        for rows, lane_counts in zip(kept[:, group : group + LANES].T, tallies):
            matrix = _matrix(period[0], lane_counts)
            results.append(TrialResult(matrix, sum_index(predict(model, matrix)), int(rows.sum())))
    return results


def reduce_corrective(
    graph: SocialGraph,
    real_cascades: Sequence[Cascade],
    model: FittedSalesModel,
    retentions: Sequence[float],
    seeds: Sequence[int],
    period: tuple[date, date],
) -> list[list[TrialResult]]:
    """Keep a random fraction of each corrective cascade's retweeters,
    close under visibility, and re-predict the index sum: `results[t][i]`
    keeps the fraction `retentions[i]`, drawn with `seeds[t]`.

    Each seed draws one keep order per cascade (`sample_keep_set` at full
    retention) and each level keeps its first round(retention * count)
    retweeters, so for one seed the kept sets are nested across levels
    and the index sums are noise-free monotone; levels 0 and 1 do not
    depend on the seed.  All levels of all seeds are pruned in one
    fixpoint and share the exposure code of the other categories.
    """
    if not all(0.0 <= r <= 1.0 for r in retentions):
        raise ExperimentError("retention must be in [0, 1]")
    corrective = [c for c in real_cascades if c.seed.category is TweetCategory.CORRECTIVE]
    others = [c for c in real_cascades if c.seed.category is not TweetCategory.CORRECTIVE]
    counts = np.array([len(c.events) for c in corrective], dtype=np.int64)
    owner = np.repeat(np.arange(len(corrective)), counts)
    # each event's rank in its cascade's keep order, one column per seed;
    # events are found by their (cascade, user) key
    key = owner * graph.n_users + _events(corrective)["user"]
    by_key = np.argsort(key)
    rank = np.arange(len(key)) - (np.cumsum(counts) - counts)[owner]
    ranks = np.empty((len(key), len(seeds)), dtype=np.int64)
    for t, seed in enumerate(seeds):
        order = [np.zeros(0, np.int64), *(sample_keep_set(c, 1.0, seed) for c in corrective)]
        found = np.searchsorted(key, owner * graph.n_users + np.concatenate(order), sorter=by_key)
        ranks[by_key[found], t] = rank
    sizes = _keep_size(np.asarray(retentions, dtype=np.float64), counts[:, None])
    # lane t * len(retentions) + i offers the events ranked below level i's size
    want = ranks[:, :, None] < sizes[owner][:, None, :]
    kept = _prune(graph, corrective, want.reshape(len(key), len(seeds) * len(retentions)))
    results = _replay(graph, model, period, others, corrective, kept)
    k = len(retentions)
    return [results[t * k : (t + 1) * k] for t in range(len(seeds))]


def guideline_experiment(
    graph: SocialGraph,
    real_cascades: Sequence[Cascade],
    model: FittedSalesModel,
    misinfo_rt_rate: float | None,
    seed: int,
    period: tuple[date, date],
    trial: int = 0,
) -> TrialResult:
    """Apply the policy: a corrective retweet survives only if its user
    had been exposed to misinformation strictly before retweeting.

    With `misinfo_rt_rate` None the gate uses the recorded misinformation
    cascades (whose spread already embodies the observed RT rate).  A rate
    instead re-simulates them at that rate from their seed tweets, in the
    stream of (`seed`, `trial`); the simulated cascades then both gate the
    corrective events and replace the recorded ones in the exposure counts.
    A simulated retweet ranks after every recorded post of its day, so a
    corrective retweet on that day does not count it as seen before.
    """
    mis_cascades = [c for c in real_cascades if c.seed.category is TweetCategory.MISINFORMATION]
    if misinfo_rt_rate is not None:
        mis_cascades = simulate_cascades(
            graph,
            [c.seed for c in mis_cascades],
            {TweetCategory.MISINFORMATION: misinfo_rt_rate},
            period,
            derive_seed(seed, "guideline-mis", trial),
        )
    corrective = [c for c in real_cascades if c.seed.category is TweetCategory.CORRECTIVE]
    soldout = [c for c in real_cascades if c.seed.category is TweetCategory.SOLDOUT]
    # misinformation posts (seeds, then retweets) and corrective retweets,
    # ranked together by event time
    mis, retweets = _actors(mis_cascades), _events(corrective)
    later = np.zeros(len(mis) + len(retweets), dtype=bool)
    later[len(mis_cascades) : len(mis)] = misinfo_rt_rate is not None
    ranks = _time_ranks(np.concatenate([mis, retweets]), later)
    # each user's first misinformation exposure, as an actor or a follower
    n = graph.n_users
    first_mis = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    audience = _with_neighbors(graph._followers, ranks[: len(mis)] * n + mis["user"], n)
    rank, user = np.divmod(audience, n)
    np.minimum.at(first_mis, user, rank)
    gated = first_mis[retweets["user"]] < ranks[len(mis) :]
    kept = _prune(graph, corrective, gated[:, None])
    return _replay(graph, model, period, mis_cascades + soldout, corrective, kept)[0]


def simulate_trial(
    graph: SocialGraph,
    seed_tweets: Sequence[SeedTweet],
    model: FittedSalesModel,
    rt_rates: Mapping[TweetCategory, float],
    period: tuple[date, date],
    trial_seed: int,
) -> TrialResult:
    """One fully regenerated stochastic trial at `simulate_cascades`' rates.

    Corrective exposure suppresses misinformation retweets (a user who
    already saw a correction does not pass the misinformation on).
    """
    cascades = simulate_cascades(
        graph, seed_tweets, rt_rates, period, trial_seed, corrective_blocks_misinfo=True
    )
    matrix = exposure_matrix(graph, cascades, period)
    return TrialResult(matrix, sum_index(predict(model, matrix)))


def sweep(
    graph: SocialGraph,
    seed_tweets: Sequence[SeedTweet],
    model: FittedSalesModel,
    corrective_rates: Sequence[float],
    misinfo_rates: Sequence[float],
    trials: int,
    base_seed: int,
    period: tuple[date, date],
    soldout_rt_rate: float = REAL_SOLDOUT_RT_RATE,
) -> SweepGrid:
    """Full rate grid; per cell, `trials` regenerated runs and their
    index-sum statistics.

    Trial seeds depend only on (base_seed, trial), not on the cell, so
    runs at different rates within one trial share their per-(tweet,
    user) retweet draws and are monotone-coupled across rates.  Each cell
    equals `simulate_trial` at its rates and trial seed.

    A tweet's cascade depends only on its own draws, the graph and, for
    misinformation, who corrective posts reach on which day.  So a trial
    spreads the soldout tweets once, the corrective tweets once with each
    corrective rate as a lane of one `_spread` run, and the
    misinformation tweets once with a lane per (corrective rate,
    misinformation rate) pair, gated by that corrective lane's reach
    keys: 3 runs for the 6 x 7 default grid.  Runs hold
    up to `LANES` lanes each.  A cell's class counts are the soldout
    counts with the (day, user) pairs its corrective lane reaches, then
    those its misinformation lane reaches, moved to the class that adds
    the category: one tally counts every lane of a corrective run, and one
    per corrective lane counts all its misinformation lanes in a run.
    That tally reads the code only at the misinformation run's reach keys,
    so the corrective lane's bit is set and cleared only there: each
    misinformation run looks its keys up once in the corrective run's
    sorted reach keys, and a key that is absent has no corrective lanes.
    """
    if not corrective_rates or not misinfo_rates:
        raise ExperimentError("rate lists must be non-empty")
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    if not all(0.0 <= r <= 1.0 for r in (*corrective_rates, *misinfo_rates, soldout_rt_rate)):
        raise ExperimentError("RT rates must be in [0, 1]")
    order = (TweetCategory.SOLDOUT, TweetCategory.CORRECTIVE, TweetCategory.MISINFORMATION)
    by_cat = {cat: [s for s in seed_tweets if s.category is cat] for cat in order}
    # every run's checks, in the order of the runs, before any work
    _check_run(graph, [s for cat in order for s in by_cat[cat]], period)
    start, end = period
    # the category code of the current trial's soldout reach and, while
    # its cells are counted, a corrective lane's
    code = np.zeros(((end - start).days + 1, graph.n_users), dtype=np.uint8)
    flat = code.reshape(-1)
    c_bit, m_bit = (_CATEGORY_BITS[c] for c in order[1:])
    width = len(misinfo_rates)
    sums: list[list[list[float]]] = [[[] for _ in corrective_rates] for _ in misinfo_rates]
    for t in range(trials):
        ts = derive_seed(base_seed, "trial", t)
        ((run, _),) = _lane_runs(graph, by_cat[TweetCategory.SOLDOUT], [soldout_rt_rate], period, ts)
        soldout = run.reach
        flat[soldout] = _CATEGORY_BITS[TweetCategory.SOLDOUT]
        soldout_counts = _code_counts(code)
        corrective = list(
            _lane_runs(graph, by_cat[TweetCategory.CORRECTIVE], corrective_rates, period, ts)
        )
        bases, corrections = [], []
        for j, (run, lane) in enumerate(corrective):
            if lane == 0:  # a new run: count all its lanes, and gate by them
                bases.extend(
                    _lane_tally(code, soldout_counts, run.reach, run.reach_lanes, c_bit, run.width)
                )
                # pair lane k * width + i gates misinformation rate i by corrective lane k
                gated = [((1 << width) - 1) << k * width for k in range(j, j + run.width)]
                corrections.append((run.reach, run.reach_lanes, gated))
        mis_runs = _lane_runs(
            graph, by_cat[TweetCategory.MISINFORMATION], np.tile(misinfo_rates, len(corrective)),
            period, ts, corrections,
        )
        for p, (mis, lane) in enumerate(mis_runs):
            j, i = divmod(p, width)
            if lane == 0 or i == 0:  # a new run or corrective lane: count its lanes from here
                run, c = corrective[j]
                if lane == 0:  # a new misinformation run, as each corrective run starts one
                    # each of its keys' lanes in the corrective run; an absent key has none
                    at = np.searchsorted(run.reach, mis.reach)
                    held = np.zeros(len(at), run.reach_lanes.dtype)
                    found = np.flatnonzero(at < len(run.reach))
                    found = found[run.reach[at[found]] == mis.reach[found]]
                    held[found] = run.reach_lanes[at[found]]
                # the tally reads the code only at the misinformation keys
                keys = mis.reach[(held >> held.dtype.type(c) & 1) > 0]
                flat[keys] |= c_bit
                masks = mis.reach_lanes >> mis.reach_lanes.dtype.type(lane)
                lanes = min(width - i, mis.width - lane)
                counts = _lane_tally(code, bases[j], mis.reach, masks, m_bit, lanes)
                flat[keys] ^= c_bit  # clears the bit set above
            sums[i][j].append(sum_index(predict(model, _matrix(start, counts[min(i, lane)]))))
        flat[soldout] = 0
    cells = [
        SweepCell(m_rate, c_rate, tuple(sums[i][j]))
        for i, m_rate in enumerate(misinfo_rates)
        for j, c_rate in enumerate(corrective_rates)
    ]
    return SweepGrid(tuple(cells), trials)


def compare(baseline_sum: float, variant_sum: float) -> float:
    """Fractional reduction of the index sum relative to the baseline."""
    if baseline_sum == 0:
        raise ExperimentError("baseline sum is zero")
    return (baseline_sum - variant_sum) / baseline_sum


# -- CSV output ------------------------------------------------------------


def sweep_trials_csv(
    grid: SweepGrid, path: str | os.PathLike, header_comments: Sequence[str] = ()
) -> None:
    rows = (
        (c.misinfo_rate, c.corrective_rate, t, s) for c in grid.cells for t, s in enumerate(c.sums)
    )
    write_table(
        path, ["misinfo_rate", "corrective_rate", "trial", "sum_sales_index"], rows, header_comments
    )


def sweep_summary_csv(
    grid: SweepGrid, path: str | os.PathLike, header_comments: Sequence[str] = ()
) -> None:
    rows = ((c.misinfo_rate, c.corrective_rate, c.mean, c.stddev, grid.trials) for c in grid.cells)
    write_table(
        path, ["misinfo_rate", "corrective_rate", "mean", "stddev", "trials"], rows, header_comments
    )
