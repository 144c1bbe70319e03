from datetime import date, timedelta

import numpy as np
import pytest

from infodemic.cascade import TweetCategory
from infodemic.exposure import exposure_matrix
from infodemic.replica import (
    REAL_ACCOUNT_COUNT,
    REAL_PERIOD,
    REAL_SEED_COUNTS,
    REFERENCE_IMPACTS,
    REFERENCE_INTERCEPT,
    SALES_NOISE,
    Replica,
    ReplicaConfig,
    build_replica,
    reference_model,
)
from infodemic.salesmodel import predict, sum_index


def test_seed_counts_per_category(small_replica):
    got = {cat: 0 for cat in TweetCategory}
    for s in small_replica.seed_tweets:
        got[s.category] += 1
    assert got == REAL_SEED_COUNTS


def test_matrix_covers_period(small_replica):
    start, end = small_replica.config.period
    assert small_replica.matrix.days[0] == start
    assert small_replica.matrix.days[-1] == end
    assert len(small_replica.sales.values) == len(small_replica.matrix.days)


def test_matrix_consistent_with_cascades(small_replica):
    r = small_replica
    rebuilt = exposure_matrix(r.graph, r.cascades, r.config.period)
    assert np.array_equal(rebuilt.counts, r.matrix.counts)


def test_sales_follow_reference_impacts(small_replica):
    r = small_replica
    scale = REAL_ACCOUNT_COUNT / r.config.n_users
    clean = REFERENCE_INTERCEPT + r.matrix.counts @ (REFERENCE_IMPACTS * scale)
    noise = r.sales.values - clean
    assert np.abs(noise).max() < 5 * SALES_NOISE


def test_build_is_deterministic():
    cfg = ReplicaConfig(n_users=800, seed=5)
    a, b = build_replica(cfg), build_replica(cfg)
    assert np.array_equal(a.matrix.counts, b.matrix.counts)
    assert a.sales.values == pytest.approx(b.sales.values)
    assert [c.seed for c in a.cascades] == [c.seed for c in b.cascades]


def test_build_seed_changes_outcome():
    a = build_replica(ReplicaConfig(n_users=800, seed=5))
    b = build_replica(ReplicaConfig(n_users=800, seed=6))
    assert not np.array_equal(a.matrix.counts, b.matrix.counts)


def test_misinfo_seeds_post_late(small_replica):
    start, end = small_replica.config.period
    n_days = (end - start).days + 1
    cutoff = start + timedelta(days=int(small_replica.config.misinfo_day_fraction * n_days))
    for s in small_replica.seed_tweets:
        if s.category is TweetCategory.MISINFORMATION:
            assert s.day >= cutoff


def test_reference_model_predicts_exactly():
    m = reference_model(10_000, REAL_PERIOD)
    assert m.per_viewer_impacts == pytest.approx(
        REFERENCE_IMPACTS * (REAL_ACCOUNT_COUNT / 10_000)
    )
    r = build_replica(ReplicaConfig(n_users=1000, seed=3))
    m2 = reference_model(1000, r.config.period)
    pred = predict(m2, r.matrix)
    want = REFERENCE_INTERCEPT + r.matrix.counts @ (REFERENCE_IMPACTS * (REAL_ACCOUNT_COUNT / 1000))
    assert pred.values == pytest.approx(want)
    assert sum_index(pred) == pytest.approx(want.sum())
