"""Calibrated synthetic replica of the toilet-paper event dataset.

The real POS data and the 97M-account follower graph are proprietary, so
experiments that need "real" cascades run against a synthetic stand-in:
a scale-free follower graph, the real seed-tweet counts per category,
cascades diffused at the empirically observed RT rates, and a sales
series generated from reference per-viewer impacts (rescaled to the
replica's population) plus small noise.  Outputs built from a replica are
labeled as synthetic wherever they are written to disk.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from ._rng import derive_seed
from .cascade import Cascade, SeedTweet, TweetCategory, simulate_cascades
from .counterfactual import REAL_CORRECTIVE_RT_RATE, REAL_MISINFO_RT_RATE, REAL_SOLDOUT_RT_RATE
from .exposure import ExposureMatrix, exposure_matrix
from .graph import GraphGenConfig, SocialGraph, generate_graph
from .numerics import OlsResult, PcaResult
from .salesmodel import FittedSalesModel, SalesSeries, predict

log = logging.getLogger("infodemic.replica")

# per-class viewer totals and study period of the replicated event
REAL_ACCOUNT_COUNT = 97_430_525
REAL_VIEWER_TOTALS = (112_440_832, 311_345, 2_974_369, 251_100, 5_967_030, 4_157, 124_953)
REAL_PERIOD = (date(2020, 2, 21), date(2020, 3, 10))

# seed-tweet counts per category in the real dataset
REAL_SEED_COUNTS = {
    TweetCategory.MISINFORMATION: 8,
    TweetCategory.CORRECTIVE: 229,
    TweetCategory.SOLDOUT: 42,
}

# reference per-viewer impacts and intercept used to synthesize sales;
# impacts are per real-scale viewer and get rescaled by population ratio
REFERENCE_IMPACTS = np.array(
    [5.35e-8, 624.00e-8, 44.80e-8, 309.00e-8, 79.20e-8, 2.88e-8, 43.10e-8]
)
REFERENCE_INTERCEPT = 0.9919
SALES_NOISE = 0.005  # standard deviation of the synthesized index's noise

# follower-graph shape; the out-degree cap keeps the overlap between
# misinformation and corrective audiences near the observed scale
GRAPH_EXPONENT = 2.2
GRAPH_MAX_DEGREE = 150
GRAPH_POPULARITY_EXPONENT = 1.2

# author placement: follower-count rank bands as fractions of n_users
CORRECTIVE_AUTHOR_RANKS = (0.0, 0.003)
SOLDOUT_AUTHOR_RANKS = (0.003, 0.03)


@dataclass(frozen=True)
class ReplicaConfig:
    n_users: int = 100_000
    seed: int = 2
    period: tuple[date, date] = REAL_PERIOD
    min_degree: int = 3
    misinfo_author_ranks: tuple[float, float] = (0.003, 0.025)
    # earliest misinformation posting day, as a fraction of the period
    misinfo_day_fraction: float = 0.7


def reference_model(
    n_users: int, period: tuple[date, date] = REAL_PERIOD
) -> FittedSalesModel:
    """Sales model with the reference per-viewer impacts baked in.

    Uses an identity component basis, so predictions are exactly
    intercept + counts @ impacts with the impacts rescaled from the real
    account population to `n_users`.  Useful when an experiment needs a
    model with the reference impact structure rather than one fitted to a
    particular replica's noisy sales series.
    """
    scale = REAL_ACCOUNT_COUNT / n_users
    impacts = REFERENCE_IMPACTS * scale
    k = len(impacts)
    p = PcaResult(
        means=np.zeros(k),
        eigenvalues=np.ones(k),
        eigenvectors=np.eye(k),
        contribution=np.full(k, 1.0 / k),
    )
    diag = OlsResult(
        coefficients=impacts,
        intercept=REFERENCE_INTERCEPT,
        stderrs=np.zeros(k + 1),
        t_values=np.zeros(k + 1),
        p_values=np.zeros(k + 1),
        r_squared=1.0,
        f_value=float("inf"),
        dof=0,
    )
    start, end = period
    days = tuple(start + timedelta(days=i) for i in range((end - start).days + 1))
    return FittedSalesModel(
        pca=p,
        k=k,
        coefficients=impacts,
        intercept=REFERENCE_INTERCEPT,
        diagnostics=diag,
        train_days=days,
    )


@dataclass(frozen=True)
class Replica:
    config: ReplicaConfig
    graph: SocialGraph
    seed_tweets: tuple[SeedTweet, ...]
    cascades: tuple[Cascade, ...]
    matrix: ExposureMatrix
    sales: SalesSeries


def _place_seeds(
    config: ReplicaConfig, graph: SocialGraph, rng: np.random.Generator
) -> list[SeedTweet]:
    """Assign authors (by follower-count rank band) and posting days.

    Corrective/sold-out posting spreads over the whole period; the few
    misinformation seeds land late (as in the replicated event, most
    corrective activity predates a user's misinformation exposure, which
    keeps the guideline's retained-retweeter fraction small).
    """
    by_rank = np.argsort(graph.in_degrees())[::-1]
    start, end = config.period
    n_days = (end - start).days + 1
    bands = {
        TweetCategory.CORRECTIVE: CORRECTIVE_AUTHOR_RANKS,
        TweetCategory.SOLDOUT: SOLDOUT_AUTHOR_RANKS,
        TweetCategory.MISINFORMATION: config.misinfo_author_ranks,
    }
    seeds: list[tuple[date, str, int, TweetCategory]] = []
    for cat, count in REAL_SEED_COUNTS.items():
        frac_lo, frac_hi = bands[cat]
        lo = int(frac_lo * graph.n_users)
        hi = min(max(int(frac_hi * graph.n_users), lo + count), graph.n_users)
        authors = rng.choice(by_rank[lo:hi], size=count, replace=False)
        if cat is TweetCategory.MISINFORMATION:
            lo_day = int(config.misinfo_day_fraction * n_days)
            days = rng.integers(lo_day, max(lo_day + 1, n_days - 1), size=count)
        else:
            days = rng.integers(0, n_days, size=count)
        for i, (a, d) in enumerate(zip(authors, days)):
            tid = f"{cat.value[:3]}-{i:04d}"
            seeds.append((start + timedelta(days=int(d)), tid, int(a), cat))
    seeds.sort(key=lambda t: (t[0], t[1]))
    return [
        SeedTweet(tweet_id=tid, author=a, category=cat, day=d, seq=i * 1000)
        for i, (d, tid, a, cat) in enumerate(seeds)
    ]


def build_replica(config: ReplicaConfig = ReplicaConfig()) -> Replica:
    rng = np.random.default_rng(derive_seed(config.seed, "replica"))
    graph = generate_graph(
        GraphGenConfig(
            n_users=config.n_users,
            exponent=GRAPH_EXPONENT,
            min_degree=config.min_degree,
            max_degree=GRAPH_MAX_DEGREE,
            popularity_exponent=GRAPH_POPULARITY_EXPONENT,
            seed=derive_seed(config.seed, "replica-graph"),
        )
    )
    seeds = _place_seeds(config, graph, rng)
    cascades = simulate_cascades(
        graph,
        seeds,
        {
            TweetCategory.MISINFORMATION: REAL_MISINFO_RT_RATE,
            TweetCategory.CORRECTIVE: REAL_CORRECTIVE_RT_RATE,
            TweetCategory.SOLDOUT: REAL_SOLDOUT_RT_RATE,
        },
        config.period,
        derive_seed(config.seed, "replica-cascades"),
    )
    matrix = exposure_matrix(graph, cascades, config.period)
    exact = predict(reference_model(config.n_users, config.period), matrix).values
    sales = SalesSeries(matrix.days, exact + rng.normal(0.0, SALES_NOISE, size=len(matrix.days)))
    log.info(
        "replica: %d users, %d edges, %d cascades, %d retweets",
        graph.n_users,
        graph.n_edges,
        len(cascades),
        sum(len(c.events) for c in cascades),
    )
    return Replica(
        config=config,
        graph=graph,
        seed_tweets=tuple(seeds),
        cascades=tuple(cascades),
        matrix=matrix,
        sales=sales,
    )
