from datetime import date

import numpy as np
import pytest

from infodemic._rng import derive_seed
from infodemic.cascade import (
    Cascade,
    SeedTweet,
    TweetCategory,
    prune_cascade,
    simulate_cascades,
)
from infodemic.counterfactual import (
    CORRECTIVE_RATE_LEVELS,
    MISINFO_RATE_LEVELS,
    ExperimentConfig,
    ExperimentError,
    compare,
    guideline_experiment,
    reduce_corrective,
    simulate_trial,
    sweep,
    sweep_summary_csv,
    sweep_trials_csv,
)
from infodemic.exposure import exposure_matrix
from infodemic.graph import SocialGraph
from infodemic.replica import REAL_PERIOD, reference_model
from infodemic.salesmodel import fit, predict, sum_index


@pytest.fixture(scope="module")
def fitted(small_replica):
    return fit(small_replica.matrix, small_replica.sales, k=4)


def test_rate_levels_shapes():
    assert len(CORRECTIVE_RATE_LEVELS) == 6
    assert len(MISINFO_RATE_LEVELS) == 7
    assert CORRECTIVE_RATE_LEVELS[0] == max(CORRECTIVE_RATE_LEVELS)
    assert CORRECTIVE_RATE_LEVELS[-1] == 0.0


def test_experiment_config_validation():
    with pytest.raises(ExperimentError):
        ExperimentConfig(corrective_rt_rate=1.5)


def test_compare_reduction():
    assert compare(20.0, 15.0) == pytest.approx(0.25)
    assert compare(10.0, 12.0) == pytest.approx(-0.2)
    with pytest.raises(ExperimentError):
        compare(0.0, 1.0)


def test_full_retention_is_baseline(small_replica, fitted):
    r = small_replica
    res = reduce_corrective(r.graph, r.cascades, fitted, 1.0, 0, r.config.period)
    baseline = sum_index(predict(fitted, r.matrix))
    assert res.sum_index == pytest.approx(baseline, abs=1e-9)
    total_rts = sum(
        len(c.events) for c in r.cascades
        if c.seed.category is TweetCategory.CORRECTIVE
    )
    assert res.corrective_retweeters_kept == total_rts


# (seed, corrective rate level) -> (corrective_retweeters_kept, totals) on
# the 3000-user replica; integers, so they hold on every numpy build
REDUCE_PINS = {
    (0, 0.0079): (101, [9957, 371, 1759, 153, 1068, 15, 48]),
    (0, 0.0063): (90, [9900, 374, 1761, 150, 1066, 15, 48]),
    (0, 0.0047): (70, [9740, 374, 1766, 150, 1061, 16, 47]),
    (0, 0.0032): (21, [9591, 376, 1774, 148, 1053, 17, 46]),
    (0, 0.0016): (5, [9552, 376, 1775, 148, 1052, 17, 46]),
    (0, 0.0): (0, [9512, 377, 1779, 147, 1048, 17, 46]),
    (42, 0.0079): (101, [9957, 371, 1759, 153, 1068, 15, 48]),
    (42, 0.0063): (91, [9903, 374, 1760, 150, 1067, 15, 48]),
    (42, 0.0047): (73, [9853, 374, 1761, 150, 1066, 15, 48]),
    (42, 0.0032): (26, [9677, 376, 1771, 148, 1056, 17, 46]),
    (42, 0.0016): (8, [9630, 377, 1773, 147, 1054, 17, 46]),
    (42, 0.0): (0, [9512, 377, 1779, 147, 1048, 17, 46]),
}


@pytest.mark.parametrize("seed, level", sorted(REDUCE_PINS))
def test_reduce_corrective_pinned(small_replica, fitted, seed, level):
    r = small_replica
    retention = level / CORRECTIVE_RATE_LEVELS[0]
    res = reduce_corrective(r.graph, r.cascades, fitted, retention, seed, r.config.period)
    assert (res.corrective_retweeters_kept, res.totals.tolist()) == REDUCE_PINS[seed, level]


def test_guideline_pinned(small_replica, fitted):
    r = small_replica
    res = guideline_experiment(r.graph, r.cascades, fitted, 0.05, 3, r.config.period)
    assert res.corrective_retweeters_kept == 15
    assert res.totals.tolist() == [9444, 542, 1768, 249, 1020, 21, 81]


def test_zero_retention_drops_all_corrective_retweets(small_replica, fitted):
    r = small_replica
    res = reduce_corrective(r.graph, r.cascades, fitted, 0.0, 0, r.config.period)
    assert res.corrective_retweeters_kept == 0


def test_retention_exposure_monotone_for_shared_seed(small_replica, fitted):
    """For one sampling seed the kept sets are nested across retention
    levels, so corrective reach can only grow with retention."""
    r = small_replica
    results = [
        reduce_corrective(r.graph, r.cascades, fitted, ret, 42, r.config.period)
        for ret in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    kept = [res.corrective_retweeters_kept for res in results]
    assert kept == sorted(kept)
    corrective_classes = [0, 3, 4, 6]
    reach = [res.totals[corrective_classes].sum() for res in results]
    assert reach == sorted(reach)


def test_zero_retention_matches_seed_only_exposure(small_replica, fitted):
    """Dropping every corrective retweet must equal re-counting exposure
    with pruned-to-empty corrective cascades."""
    r = small_replica
    res = reduce_corrective(r.graph, r.cascades, fitted, 0.0, 0, r.config.period)
    stripped = [
        c if c.seed.category is not TweetCategory.CORRECTIVE
        else prune_cascade(r.graph, c, keep=[])
        for c in r.cascades
    ]
    want = exposure_matrix(r.graph, stripped, r.config.period)
    assert np.array_equal(res.matrix.counts, want.counts)
    # losing corrective reach can only grow the misinformation-only class
    assert res.matrix.counts[:, 1].sum() >= r.matrix.counts[:, 1].sum()


def test_guideline_gate_is_exact(small_replica, fitted):
    """Surviving corrective retweets must postdate the user's first
    possible misinformation exposure; all others must be gone."""
    r = small_replica
    res = guideline_experiment(r.graph, r.cascades, fitted, None, 0, r.config.period)

    # oracle: per-user first misinformation exposure time as (day, seq)
    first_mis: dict[int, tuple] = {}

    def mark(user, key):
        for f in r.graph.followers_array(user):
            first_mis[int(f)] = min(first_mis.get(int(f), key), key)
        first_mis[user] = min(first_mis.get(user, key), key)

    mis = [c for c in r.cascades if c.seed.category is TweetCategory.MISINFORMATION]
    for c in mis:
        mark(c.seed.author, (c.seed.day.toordinal(), c.seed.seq))
        for user, day, seq in c.events.tolist():
            mark(user, (day, seq))

    out_by_id = {}
    for c in r.cascades:
        if c.seed.category is TweetCategory.CORRECTIVE:
            gate = {
                user
                for user, day, seq in c.events.tolist()
                if user in first_mis and first_mis[user] < (day, seq)
            }
            out_by_id[c.seed.tweet_id] = prune_cascade(r.graph, c, gate)
    kept_total = sum(len(c.events) for c in out_by_id.values())
    assert res.corrective_retweeters_kept == kept_total


def test_guideline_orders_by_day_before_snowflake_seq():
    """A snowflake-sized seq must not move an event past a later day."""
    # users 1 and 3 follow both the misinformation author 0 and the
    # corrective author 2
    g = SocialGraph(4, [(1, 0), (1, 2), (3, 0), (3, 2)])
    mis = Cascade(SeedTweet("m", 0, TweetCategory.MISINFORMATION, date(2020, 3, 5), -3), ())

    def corrective(tweet_id, seed_seq, user, day, seq):
        seed = SeedTweet(tweet_id, 2, TweetCategory.CORRECTIVE, date(2020, 2, 24), seed_seq)
        return Cascade(seed, [(user, day.toordinal(), seq)])

    cascades = [
        mis,
        # retweeted ten days before the misinformation appears: dropped
        corrective("early", -2, 1, date(2020, 2, 25), 1_230_000_000_000_000_000),
        # retweeted the day after: kept
        corrective("late", -1, 3, date(2020, 3, 6), 7),
    ]
    res = guideline_experiment(g, cascades, reference_model(4), None, 0, REAL_PERIOD)
    assert res.corrective_retweeters_kept == 1


def test_guideline_with_resimulated_misinfo(small_replica, fitted):
    r = small_replica
    a = guideline_experiment(r.graph, r.cascades, fitted, 0.05, 3, r.config.period)
    b = guideline_experiment(r.graph, r.cascades, fitted, 0.05, 3, r.config.period)
    c = guideline_experiment(r.graph, r.cascades, fitted, 0.05, 4, r.config.period)
    assert a.sum_index == b.sum_index  # same seed, same outcome
    # heavier misinformation spread keeps more corrective retweeters than
    # the observed trickle
    low = guideline_experiment(r.graph, r.cascades, fitted, None, 3, r.config.period)
    assert a.corrective_retweeters_kept >= low.corrective_retweeters_kept


def test_simulate_trial_runs_and_counts(small_replica, fitted):
    r = small_replica
    cfg = ExperimentConfig()
    res = simulate_trial(
        r.graph, r.seed_tweets, fitted, cfg, r.config.period, derive_seed(0, "t", 0)
    )
    assert res.totals.shape == (7,)
    assert res.totals.sum() > 0
    assert len(res.series.values) == len(res.matrix.days)


def test_sweep_grid_shape_and_stats(small_replica, fitted):
    r = small_replica
    grid = sweep(
        r.graph, r.seed_tweets, fitted,
        corrective_rates=[0.0079, 0.0],
        misinfo_rates=[0.0, 0.05],
        trials=3, base_seed=1, period=r.config.period,
    )
    assert len(grid.cells) == 4
    cell = grid.cell(0.05, 0.0079)
    assert len(cell.sums) == 3
    assert cell.mean == pytest.approx(np.mean(cell.sums))
    assert cell.stddev == pytest.approx(np.std(cell.sums))
    with pytest.raises(ExperimentError):
        grid.cell(0.123, 0.456)
    with pytest.raises(ExperimentError):
        sweep(r.graph, r.seed_tweets, fitted, [], [0.0], 1, 0, r.config.period)
    with pytest.raises(ExperimentError):
        sweep(r.graph, r.seed_tweets, fitted, [0.0], [0.0], 0, 0, r.config.period)


def misinfo_retweets(r, rates, trial_seed, blocks):
    cascades = simulate_cascades(
        r.graph, r.seed_tweets, rates, r.config.period, trial_seed, corrective_blocks_misinfo=blocks
    )
    return sum(len(c.events) for c in cascades if c.seed.category is TweetCategory.MISINFORMATION)


def test_sweep_equals_per_cell_trials(small_replica, fitted):
    r = small_replica
    kw = dict(
        corrective_rates=[0.0079, 0.0, 0.05], misinfo_rates=[0.0, 0.05, 0.2],
        trials=2, base_seed=9, period=r.config.period,
    )
    grid = sweep(r.graph, r.seed_tweets, fitted, **kw)
    assert len(grid.cells) == 9
    blocked = 0
    for c in grid.cells:
        cfg = ExperimentConfig(misinfo_rt_rate=c.misinfo_rate, corrective_rt_rate=c.corrective_rate)
        want = []
        for t in range(2):
            ts = derive_seed(9, "trial", t)
            want.append(
                simulate_trial(r.graph, r.seed_tweets, fitted, cfg, r.config.period, ts, t).sum_index
            )
            rates = {
                TweetCategory.MISINFORMATION: c.misinfo_rate,
                TweetCategory.CORRECTIVE: c.corrective_rate,
                TweetCategory.SOLDOUT: cfg.soldout_rt_rate,
            }
            blocked += misinfo_retweets(r, rates, ts, False) - misinfo_retweets(r, rates, ts, True)
        assert c.sums == tuple(want)
    # corrective exposure gates misinformation somewhere on this grid
    assert blocked > 0


def test_sweep_gates_misinfo_from_the_day_after_correction():
    # user 1 follows the misinformation author 0 and the corrective author
    # 2, and user 3 follows 1; a correction seen the same day does not gate
    g = SocialGraph(4, [(1, 0), (1, 2), (3, 1)])
    day = REAL_PERIOD[0]
    seeds = [
        SeedTweet("c", 2, TweetCategory.CORRECTIVE, day, -3),
        SeedTweet("m", 0, TweetCategory.MISINFORMATION, day, -2),
        SeedTweet("m2", 0, TweetCategory.MISINFORMATION, date(2020, 2, 22), -1),
    ]
    rates = {TweetCategory.MISINFORMATION: 1.0}
    c, m, m2 = simulate_cascades(
        g, seeds, rates, REAL_PERIOD, derive_seed(0, "trial", 0), corrective_blocks_misinfo=True
    )
    assert m.retweeters.tolist() == [1, 3] and m2.retweeters.tolist() == []
    model = reference_model(4)
    grid = sweep(g, seeds, model, [0.0], [0.0, 1.0], 1, 0, REAL_PERIOD)
    for cell in grid.cells:
        cfg = ExperimentConfig(misinfo_rt_rate=cell.misinfo_rate, corrective_rt_rate=0.0)
        want = simulate_trial(g, seeds, model, cfg, REAL_PERIOD, derive_seed(0, "trial", 0))
        assert cell.sums == (want.sum_index,)
    assert grid.cells[0].sums != grid.cells[1].sums


def test_sweep_coupled_trials_monotone_exposure(small_replica, fitted):
    """Within one trial, raising the misinformation rate adds exposure."""
    r = small_replica
    cfgs = [
        ExperimentConfig(misinfo_rt_rate=m, corrective_rt_rate=0.0079)
        for m in (0.01, 0.05)
    ]
    ts = derive_seed(2, "trial", 0)
    lo, hi = (
        simulate_trial(r.graph, r.seed_tweets, fitted, c, r.config.period, ts)
        for c in cfgs
    )
    mis_cols = [1, 3, 5, 6]
    assert hi.totals[mis_cols].sum() >= lo.totals[mis_cols].sum()


def test_sweep_csv_outputs(small_replica, fitted, tmp_path):
    r = small_replica
    grid = sweep(
        r.graph, r.seed_tweets, fitted,
        corrective_rates=[0.0079], misinfo_rates=[0.0186],
        trials=2, base_seed=0, period=r.config.period,
    )
    p1, p2 = tmp_path / "trials.csv", tmp_path / "summary.csv"
    sweep_trials_csv(grid, p1, ["cfg=test"])
    sweep_summary_csv(grid, p2, ["cfg=test"])
    t = p1.read_text().splitlines()
    assert t[0] == "# cfg=test"
    assert t[1] == "misinfo_rate,corrective_rate,trial,sum_sales_index"
    assert len(t) == 2 + 2  # one line per trial
    s = p2.read_text().splitlines()
    assert s[1] == "misinfo_rate,corrective_rate,mean,stddev,trials"
    assert len(s) == 3
