"""What-if experiments: corrective-RT reduction, the misinformation-gated
retweet guideline, and the RT-rate grid sweep.

All experiments run against an immutable graph and a fitted sales model;
each trial derives its own RNG stream from (base seed, cell, trial) so
grids are reproducible and trials independent.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from datetime import date
from statistics import mean, pstdev
from typing import Sequence

import numpy as np

from ._rng import derive_seed
from ._table import write_table
from .cascade import (
    Cascade,
    CascadeError,
    SeedTweet,
    TweetCategory,
    prune_cascade,
    sample_keep_set,
    simulate_cascades,
)
from .exposure import (
    ExposureMatrix,
    _add_reach,
    _code,
    _code_counts,
    _matrix,
    _reach,
    exposure_matrix,
    total_exposures,
)
from .graph import SocialGraph
from .salesmodel import FittedSalesModel, SalesSeries, predict, sum_index

log = logging.getLogger("infodemic.counterfactual")

# the six corrective RT-rate levels studied, highest (real) first, and the
# retention fraction of real corrective retweeters each one represents
CORRECTIVE_RATE_LEVELS: tuple[float, ...] = (0.0079, 0.0063, 0.0047, 0.0032, 0.0016, 0.0)
MISINFO_RATE_LEVELS: tuple[float, ...] = (0.0, 0.00186, 0.01, 0.02, 0.03, 0.04, 0.05)
REAL_CORRECTIVE_RT_RATE = 0.0079
REAL_MISINFO_RT_RATE = 0.00186


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    corrective_rt_rate: float = REAL_CORRECTIVE_RT_RATE
    misinfo_rt_rate: float = REAL_MISINFO_RT_RATE
    soldout_rt_rate: float = 0.004
    trials: int = 10
    base_seed: int = 0

    def __post_init__(self):
        for r in (self.corrective_rt_rate, self.misinfo_rt_rate, self.soldout_rt_rate):
            if not 0.0 <= r <= 1.0:
                raise ExperimentError("RT rates must be in [0, 1]")
        if self.trials < 1:
            raise ExperimentError("trials must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    trial: int
    matrix: ExposureMatrix
    series: SalesSeries
    sum_index: float
    totals: np.ndarray
    corrective_retweeters_kept: int | None = None

    def __post_init__(self):
        t = np.asarray(self.totals, dtype=np.int64)
        t.setflags(write=False)
        object.__setattr__(self, "totals", t)


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


def _time_ranks(days: Sequence[date], seqs: Sequence[int]) -> np.ndarray:
    """Dense ranks of event times ordered by (day, seq); equal times tie."""
    d = np.fromiter(map(date.toordinal, days), np.int64, len(days))
    s = np.asarray(seqs, dtype=np.int64)
    order = np.lexsort((s, d))
    d, s = d[order], s[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (d[1:] != d[:-1]) | (s[1:] != s[:-1])
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.cumsum(new)
    return ranks


def _result(
    graph: SocialGraph,
    cascades: Sequence[Cascade],
    model: FittedSalesModel,
    period: tuple[date, date],
    trial: int,
    kept: int | None = None,
) -> TrialResult:
    matrix = exposure_matrix(graph, cascades, period)
    series = predict(model, matrix)
    return TrialResult(
        trial=trial,
        matrix=matrix,
        series=series,
        sum_index=sum_index(series),
        totals=total_exposures(matrix),
        corrective_retweeters_kept=kept,
    )


def reduce_corrective(
    graph: SocialGraph,
    real_cascades: Sequence[Cascade],
    model: FittedSalesModel,
    retention: float,
    seed: int,
    period: tuple[date, date],
    trial: int = 0,
) -> TrialResult:
    """Keep a random `retention` fraction of each corrective cascade's
    retweeters, close under visibility, and re-predict the index sum.

    Retention levels share the coupled prefix sampling of
    `sample_keep_set`, so for one seed the kept sets are nested across
    levels and the resulting index sums are noise-free monotone.
    """
    out: list[Cascade] = []
    kept = 0
    for c in real_cascades:
        if c.seed.category is TweetCategory.CORRECTIVE:
            keep = sample_keep_set(c, retention, seed)
            c = prune_cascade(graph, c, keep)
            kept += len(c.events)
        out.append(c)
    return _result(graph, out, model, period, trial, kept)


def guideline_experiment(
    graph: SocialGraph,
    real_cascades: Sequence[Cascade],
    model: FittedSalesModel,
    misinfo_rt_rate: float | None = None,
    seed: int = 0,
    period: tuple[date, date] = None,
    trial: int = 0,
) -> TrialResult:
    """Apply the policy: a corrective retweet survives only if its user
    had been exposed to misinformation strictly before retweeting.

    By default the gate uses the misinformation cascades as recorded in
    `real_cascades` (whose spread already embodies the observed
    misinformation RT rate).  Passing `misinfo_rt_rate` instead
    re-simulates misinformation diffusion at that rate from the real
    misinformation seed tweets; the simulated cascades then both gate the
    corrective events and replace the real ones in the exposure counts.
    """
    others = [
        c for c in real_cascades if c.seed.category is not TweetCategory.MISINFORMATION
    ]
    if misinfo_rt_rate is None:
        mis_cascades = [
            c for c in real_cascades if c.seed.category is TweetCategory.MISINFORMATION
        ]
    else:
        mis_seeds = [
            c.seed
            for c in real_cascades
            if c.seed.category is TweetCategory.MISINFORMATION
        ]
        max_seq = max(
            [c.seed.seq for c in real_cascades]
            + [ev.seq for c in real_cascades for ev in c.events],
            default=0,
        )
        mis_cascades = simulate_cascades(
            graph,
            mis_seeds,
            {TweetCategory.MISINFORMATION: misinfo_rt_rate},
            period,
            derive_seed(seed, "guideline-mis", trial),
            seq_start=max_seq + 1,
        )
    # misinformation posts (seeds, then retweets) and corrective retweets,
    # ranked together by event time
    mis_events = [ev for c in mis_cascades for ev in c.events]
    actors = [c.seed.author for c in mis_cascades] + [ev.user for ev in mis_events]
    corrective = [
        ev for c in others if c.seed.category is TweetCategory.CORRECTIVE for ev in c.events
    ]
    times = [c.seed for c in mis_cascades] + mis_events + corrective
    ranks = _time_ranks([t.day for t in times], [t.seq for t in times])
    mis_ranks, cor_ranks = ranks[: len(actors)], ranks[len(actors) :]
    audiences = [graph.followers_array(a) for a in actors]
    first_mis = np.full(graph.n_users, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(
        first_mis,
        np.concatenate([np.asarray(actors, dtype=np.int64), *audiences]),
        np.concatenate([mis_ranks, np.repeat(mis_ranks, list(map(len, audiences)))]),
    )
    users = np.fromiter((ev.user for ev in corrective), np.int64, len(corrective))
    # consumed cascade by cascade, in the order `corrective` was built
    gated = iter(first_mis[users] < cor_ranks)
    out: list[Cascade] = list(mis_cascades)
    kept = 0
    for c in others:
        if c.seed.category is TweetCategory.CORRECTIVE:
            keep = {ev.user for ev, ok in zip(c.events, gated) if ok}
            c = prune_cascade(graph, c, keep)
            kept += len(c.events)
        out.append(c)
    return _result(graph, out, model, period, trial, kept)


def simulate_trial(
    graph: SocialGraph,
    seed_tweets: Sequence[SeedTweet],
    model: FittedSalesModel,
    config: ExperimentConfig,
    period: tuple[date, date],
    trial_seed: int,
    trial: int = 0,
) -> TrialResult:
    """One fully regenerated stochastic trial at the config's RT rates.

    Corrective exposure suppresses misinformation retweets (a user who
    already saw a correction does not pass the misinformation on).
    """
    cascades = simulate_cascades(
        graph,
        seed_tweets,
        {
            TweetCategory.MISINFORMATION: config.misinfo_rt_rate,
            TweetCategory.CORRECTIVE: config.corrective_rt_rate,
            TweetCategory.SOLDOUT: config.soldout_rt_rate,
        },
        period,
        trial_seed,
        corrective_blocks_misinfo=True,
    )
    return _result(graph, cascades, model, period, trial)


def sweep(
    graph: SocialGraph,
    seed_tweets: Sequence[SeedTweet],
    model: FittedSalesModel,
    corrective_rates: Sequence[float],
    misinfo_rates: Sequence[float],
    trials: int,
    base_seed: int,
    period: tuple[date, date],
    soldout_rt_rate: float = 0.004,
) -> SweepGrid:
    """Full rate grid; per cell, `trials` regenerated runs and their
    index-sum statistics.

    Trial seeds depend only on (base_seed, trial), not on the cell, so
    runs at different rates within one trial share their per-(tweet,
    user) retweet draws and are monotone-coupled across rates.  Each cell
    equals `simulate_trial` at its rates and trial seed.

    A tweet's cascade depends only on its own draws, the graph and, for
    misinformation, each user's first day of corrective exposure.  So a
    trial simulates the soldout tweets once, the corrective tweets once
    per corrective rate, and the misinformation tweets once per cell,
    gated by that rate's first-correction days.  A cell's class counts
    are the corrective-plus-soldout counts of its corrective rate, with
    every (day, user) the misinformation reaches moved to the class that
    adds misinformation.
    """
    if not corrective_rates or not misinfo_rates:
        raise ExperimentError("rate lists must be non-empty")
    for m_rate in misinfo_rates:
        for c_rate in corrective_rates:  # each cell's config checks its rates
            ExperimentConfig(c_rate, m_rate, soldout_rt_rate, trials, base_seed)
    start, end = period
    n_days = (end - start).days + 1
    by_cat = {cat: [s for s in seed_tweets if s.category is cat] for cat in TweetCategory}
    sums: list[list[list[float]]] = [[[] for _ in corrective_rates] for _ in misinfo_rates]
    for t in range(trials):
        ts = derive_seed(base_seed, "trial", t)

        def reached(cat: TweetCategory, rate: float, **kw) -> np.ndarray:
            cascades = simulate_cascades(graph, by_cat[cat], {cat: rate}, period, ts, **kw)
            return _reach(graph, cascades, start, n_days)

        soldout = _code(reached(TweetCategory.SOLDOUT, soldout_rt_rate), TweetCategory.SOLDOUT)
        for j, c_rate in enumerate(corrective_rates):
            corrective = reached(TweetCategory.CORRECTIVE, c_rate)
            first_corr = np.where(corrective.any(axis=0), corrective.argmax(axis=0), n_days)
            base = _code(corrective, TweetCategory.CORRECTIVE) | soldout
            base_counts = _code_counts(base)
            for i, m_rate in enumerate(misinfo_rates):
                mis = reached(
                    TweetCategory.MISINFORMATION, m_rate,
                    corrective_blocks_misinfo=True, first_correction=first_corr,
                )
                counts = _add_reach(base, base_counts, mis, TweetCategory.MISINFORMATION)
                sums[i][j].append(sum_index(predict(model, _matrix(start, counts))))
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
