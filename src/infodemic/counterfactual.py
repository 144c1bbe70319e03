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
from typing import Sequence

import numpy as np

from ._rng import derive_seed
from ._table import write_table
from .cascade import (
    Cascade,
    SeedTweet,
    TweetCategory,
    _actors,
    _audience,
    _events,
    _prune,
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

    def __post_init__(self):
        for r in (self.corrective_rt_rate, self.misinfo_rt_rate, self.soldout_rt_rate):
            if not 0.0 <= r <= 1.0:
                raise ExperimentError("RT rates must be in [0, 1]")


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


def _time_ranks(events: np.ndarray) -> np.ndarray:
    """Dense ranks of `EVENT` rows by time, (day, seq); equal times tie."""
    order = np.lexsort((events["seq"], events["day"]))
    d, s = events["day"][order], events["seq"][order]
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
    corrective = [c for c in real_cascades if c.seed.category is TweetCategory.CORRECTIVE]
    others = [c for c in real_cascades if c.seed.category is not TweetCategory.CORRECTIVE]
    pruned = _prune(graph, corrective, [sample_keep_set(c, retention, seed) for c in corrective])
    kept = sum(len(c.events) for c in pruned)
    return _result(graph, others + pruned, model, period, trial, kept)


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
    mis_cascades = [c for c in real_cascades if c.seed.category is TweetCategory.MISINFORMATION]
    if misinfo_rt_rate is not None:
        mis_cascades = simulate_cascades(
            graph,
            [c.seed for c in mis_cascades],
            {TweetCategory.MISINFORMATION: misinfo_rt_rate},
            period,
            derive_seed(seed, "guideline-mis", trial),
            seq_start=_actors(real_cascades)["seq"].max(initial=0) + 1,
        )
    corrective = [c for c in real_cascades if c.seed.category is TweetCategory.CORRECTIVE]
    soldout = [c for c in real_cascades if c.seed.category is TweetCategory.SOLDOUT]
    # misinformation posts (seeds, then retweets) and corrective retweets,
    # ranked together by event time
    mis, retweets = _actors(mis_cascades), _events(corrective)
    ranks = _time_ranks(np.concatenate([mis, retweets]))
    # each user's first misinformation exposure, as an actor or a follower
    n = graph.n_users
    first_mis = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    rank, user = np.divmod(_audience(graph, ranks[: len(mis)] * n + mis["user"]), n)
    np.minimum.at(first_mis, user, rank)
    gated = first_mis[retweets["user"]] < ranks[len(mis) :]
    gates = np.split(gated, np.cumsum([len(c.events) for c in corrective])[:-1])
    pruned = _prune(graph, corrective, [c.retweeters[ok] for c, ok in zip(corrective, gates)])
    kept = sum(len(c.events) for c in pruned)
    return _result(graph, mis_cascades + soldout + pruned, model, period, trial, kept)


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
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    for m_rate in misinfo_rates:
        for c_rate in corrective_rates:  # each cell's config checks its rates
            ExperimentConfig(c_rate, m_rate, soldout_rt_rate)
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
