from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodemic import counterfactual
from infodemic._rng import derive_seed
from conftest import followers, prune, random_graph
from infodemic.cascade import (
    LANES,
    Cascade,
    CascadeError,
    SeedTweet,
    TweetCategory,
    _events,
    _lane_runs,
    _with_neighbors,
    sample_keep_set,
    simulate_cascades,
)
from infodemic.counterfactual import (
    CORRECTIVE_RATE_LEVELS,
    MISINFO_RATE_LEVELS,
    REAL_CORRECTIVE_RT_RATE,
    REAL_MISINFO_RT_RATE,
    ExperimentError,
    TrialResult,
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
from test_cascade import RATES, _random_cascade, simulation_cases


@pytest.fixture(scope="module")
def fitted(small_replica):
    return fit(small_replica.matrix, small_replica.sales, k=4)


def rt_rates(misinfo=REAL_MISINFO_RT_RATE, corrective=REAL_CORRECTIVE_RT_RATE, soldout=0.004):
    """A `simulate_trial` rates mapping; the soldout rate is `sweep`'s default."""
    return {
        TweetCategory.MISINFORMATION: misinfo,
        TweetCategory.CORRECTIVE: corrective,
        TweetCategory.SOLDOUT: soldout,
    }


def test_rate_levels_shapes():
    assert len(CORRECTIVE_RATE_LEVELS) == 6
    assert len(MISINFO_RATE_LEVELS) == 7
    assert CORRECTIVE_RATE_LEVELS[0] == max(CORRECTIVE_RATE_LEVELS)
    assert CORRECTIVE_RATE_LEVELS[-1] == 0.0


def test_simulate_trial_rate_validation(small_replica, fitted):
    r = small_replica
    with pytest.raises(CascadeError):
        simulate_trial(r.graph, r.seed_tweets, fitted, rt_rates(corrective=1.5), r.config.period, 0)


def test_compare_reduction():
    assert compare(20.0, 15.0) == pytest.approx(0.25)
    assert compare(10.0, 12.0) == pytest.approx(-0.2)
    with pytest.raises(ExperimentError):
        compare(0.0, 1.0)


def test_full_retention_is_baseline(small_replica, fitted):
    r = small_replica
    [[res]] = reduce_corrective(r.graph, r.cascades, fitted, [1.0], [0], r.config.period)
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
    [[res]] = reduce_corrective(r.graph, r.cascades, fitted, [retention], [seed], r.config.period)
    assert (res.corrective_retweeters_kept, res.totals.tolist()) == REDUCE_PINS[seed, level]


def test_guideline_pinned(small_replica, fitted):
    r = small_replica
    res = guideline_experiment(r.graph, r.cascades, fitted, 0.05, 3, r.config.period)
    assert res.corrective_retweeters_kept == 15
    assert res.totals.tolist() == [9444, 542, 1768, 249, 1020, 21, 81]


def test_zero_retention_drops_all_corrective_retweets(small_replica, fitted):
    r = small_replica
    [[res]] = reduce_corrective(r.graph, r.cascades, fitted, [0.0], [0], r.config.period)
    assert res.corrective_retweeters_kept == 0


@pytest.mark.parametrize("retention", [1.5, -0.1, float("nan")])
def test_reduce_corrective_rejects_retention_without_corrective_tweets(retention):
    # user 1 follows the misinformation author 0; nothing is corrective
    g = SocialGraph(2, [(1, 0)])
    mis = Cascade(SeedTweet("m", 0, TweetCategory.MISINFORMATION, date(2020, 3, 5), 0), ())
    with pytest.raises(ExperimentError, match=r"retention must be in \[0, 1\]"):
        reduce_corrective(g, [mis], reference_model(2), [retention], [0], REAL_PERIOD)


def test_retention_exposure_monotone_for_shared_seed(small_replica, fitted):
    """For one sampling seed the kept sets are nested across retention
    levels, so corrective reach can only grow with retention."""
    r = small_replica
    [results] = reduce_corrective(
        r.graph, r.cascades, fitted, (0.0, 0.25, 0.5, 0.75, 1.0), [42], r.config.period
    )
    kept = [res.corrective_retweeters_kept for res in results]
    assert kept == sorted(kept)
    corrective_classes = [0, 3, 4, 6]
    reach = [res.totals[corrective_classes].sum() for res in results]
    assert reach == sorted(reach)


def test_zero_retention_matches_seed_only_exposure(small_replica, fitted):
    """Dropping every corrective retweet must equal re-counting exposure
    with pruned-to-empty corrective cascades."""
    r = small_replica
    [[res]] = reduce_corrective(r.graph, r.cascades, fitted, [0.0], [0], r.config.period)
    stripped = [
        c if c.seed.category is not TweetCategory.CORRECTIVE
        else prune(r.graph, c, keep=[])
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
        for f in followers(r.graph, user):
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
            out_by_id[c.seed.tweet_id] = prune(r.graph, c, gate)
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


def test_guideline_ranks_resimulated_retweets_after_their_days_recorded_posts():
    """User 1 follows the misinformation author 0 and, at rate 1, retweets
    on the next day, exposing user 3.  User 3's corrective retweet that
    day is recorded with a seq above the simulated one's, yet the
    simulated retweet still ranks after it: only the retweet of the day
    after is kept."""
    g = SocialGraph(4, [(1, 0), (3, 1), (3, 2)])
    mis = Cascade(SeedTweet("m", 0, TweetCategory.MISINFORMATION, date(2020, 3, 5), -3), ())

    def corrective(tweet_id, seed_seq, day, seq):
        seed = SeedTweet(tweet_id, 2, TweetCategory.CORRECTIVE, date(2020, 2, 24), seed_seq)
        return Cascade(seed, [(3, day.toordinal(), seq)])

    cascades = [
        mis,
        corrective("same", -2, date(2020, 3, 6), 1),
        corrective("next", -1, date(2020, 3, 7), 2),
    ]
    res = guideline_experiment(g, cascades, reference_model(4), 1.0, 0, REAL_PERIOD)
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
    res = simulate_trial(
        r.graph, r.seed_tweets, fitted, rt_rates(), r.config.period, derive_seed(0, "t", 0)
    )
    assert res.totals.shape == (7,)
    assert res.totals.sum() > 0
    assert len(predict(fitted, res.matrix).values) == len(res.matrix.days)


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
    with pytest.raises(ExperimentError):
        sweep(r.graph, r.seed_tweets, fitted, [0.0], [0.0, 1.5], 1, 0, r.config.period)


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
        rates = rt_rates(c.misinfo_rate, c.corrective_rate)
        want = []
        for t in range(2):
            ts = derive_seed(9, "trial", t)
            want.append(
                simulate_trial(r.graph, r.seed_tweets, fitted, rates, r.config.period, ts).sum_index
            )
            blocked += misinfo_retweets(r, rates, ts, False) - misinfo_retweets(r, rates, ts, True)
        assert c.sums == tuple(want)
    # corrective exposure gates misinformation somewhere on this grid
    assert blocked > 0


def assert_sweep_equals_trials(graph, seeds, model, corrective_rates, misinfo_rates, trials,
                               base_seed, period, soldout_rate=0.004):
    grid = sweep(
        graph, seeds, model, corrective_rates, misinfo_rates, trials, base_seed, period,
        soldout_rt_rate=soldout_rate,
    )
    assert len(grid.cells) == len(corrective_rates) * len(misinfo_rates)
    for cell in grid.cells:
        rates = rt_rates(cell.misinfo_rate, cell.corrective_rate, soldout_rate)
        want = tuple(
            simulate_trial(graph, seeds, model, rates, period, derive_seed(base_seed, "trial", t)).sum_index
            for t in range(trials)
        )
        assert cell.sums == want


def test_sweep_across_lane_groups_equals_per_cell_trials(small_replica, fitted):
    """9 corrective x 10 misinformation rates, so both categories spread in
    two lane groups; rates repeat, come unsorted and include 0."""
    r = small_replica
    corrective = [0.05, 0.0, 0.0079, 0.2, 0.0016, 0.0079, 0.1, 0.0032, 0.0]
    misinfo = [0.0, 0.3, 0.05, 0.00186, 0.05, 0.01, 0.2, 0.0, 0.03, 0.1]
    assert_sweep_equals_trials(r.graph, r.seed_tweets, fitted, corrective, misinfo, 1, 4,
                               r.config.period)


def test_sweep_across_corrective_lane_groups_equals_per_cell_trials():
    """`LANES` + 2 corrective rates, so the corrective tweets spread in two
    lane groups, and the second group's rates differ from the first's:
    each corrective lane must gate its own misinformation lanes."""
    # 2 retweets 0's correction to 3, who follows the misinformation author 1
    graph = SocialGraph(5, [(2, 0), (3, 2), (3, 1), (4, 3)])
    day = REAL_PERIOD[0]
    seeds = [
        SeedTweet("c", 0, TweetCategory.CORRECTIVE, day, -2),
        SeedTweet("m", 1, TweetCategory.MISINFORMATION, date(2020, 2, 23), -1),
    ]
    corrective = [0.0, 1.0] * (LANES // 2) + [1.0, 0.0]
    assert_sweep_equals_trials(graph, seeds, reference_model(5, REAL_PERIOD), corrective,
                               [1.0], 1, 3, REAL_PERIOD)


def test_sweep_without_corrective_seeds_in_the_period_equals_per_cell_trials():
    """The only corrective seed is dated after the period, so the corrective
    reach is empty and no misinformation key finds a corrective lane."""
    period = (REAL_PERIOD[0], REAL_PERIOD[0] + timedelta(days=3))
    graph = SocialGraph(4, [(1, 0), (2, 1), (3, 2), (0, 3)])
    seeds = [
        SeedTweet("m", 0, TweetCategory.MISINFORMATION, period[0], -2),
        SeedTweet("c", 3, TweetCategory.CORRECTIVE, period[1] + timedelta(days=1), -1),
    ]
    assert_sweep_equals_trials(graph, seeds, reference_model(4, period), [0.0079, 1.0],
                               [0.0, 1.0], 2, 5, period)


def test_sweep_with_misinfo_keys_beyond_both_ends_of_the_corrective_reach():
    """A misinformation reach key below every corrective reach key and one
    above every one, beside keys that both reach."""
    # 2 follows the misinformation author 0 and the corrective author 1, and
    # 3 follows 2; the misinformation author 4, followed by no one, posts last
    graph = SocialGraph(5, [(2, 0), (2, 1), (3, 2)])
    day = REAL_PERIOD[0]
    period = (day, day + timedelta(days=2))
    misinfo = [SeedTweet("m0", 0, TweetCategory.MISINFORMATION, day, -3),
               SeedTweet("m1", 4, TweetCategory.MISINFORMATION, period[1], -1)]
    corrective = SeedTweet("c", 1, TweetCategory.CORRECTIVE, day + timedelta(days=1), -2)
    ts = derive_seed(0, "trial", 0)
    (c, _), _ = _lane_runs(graph, [corrective], [0.0, 1.0], period, ts)
    (m, _), _ = _lane_runs(graph, misinfo, [0.0, 1.0], period, ts)
    assert m.reach[0] < c.reach[0] and m.reach[-1] > c.reach[-1]
    assert len(np.intersect1d(m.reach, c.reach)) > 0
    assert_sweep_equals_trials(graph, [*misinfo, corrective], reference_model(5, period),
                               [0.0, 1.0], [0.0, 1.0], 1, 0, period)


@given(simulation_cases(), st.data())
@settings(max_examples=40, deadline=None)
def test_sweep_equals_per_cell_trials_on_random_graphs(case, data):
    graph, seeds, _, period, _, _ = case
    rates = st.lists(RATES, min_size=1, max_size=10)
    assert_sweep_equals_trials(
        graph, seeds, reference_model(graph.n_users, period),
        data.draw(rates), data.draw(rates), data.draw(st.integers(1, 2)),
        data.draw(st.integers(0, 2**32)), period, soldout_rate=data.draw(RATES),
    )


def with_seeds(*extra):
    """The sweep arguments with `extra` seed tweets, authored by users
    outside the 3000-user replica, added first."""
    return lambda r: {"seed_tweets": [
        SeedTweet(f"x{i}", r.graph.n_users + a, cat, r.config.period[0], -100 - i)
        for i, (a, cat) in enumerate(extra)
    ] + list(r.seed_tweets)}


@pytest.mark.parametrize("change, error, message", [
    (lambda r: {"period": r.config.period[::-1]}, CascadeError, "empty simulation period"),
    # the soldout run's check came first, then the corrective and misinformation runs'
    (with_seeds((0, TweetCategory.MISINFORMATION)), CascadeError, "seed author 3000 not in graph"),
    (with_seeds((0, TweetCategory.MISINFORMATION), (1, TweetCategory.CORRECTIVE)),
     CascadeError, "seed author 3001 not in graph"),
    (with_seeds((0, TweetCategory.CORRECTIVE), (2, TweetCategory.SOLDOUT)),
     CascadeError, "seed author 3002 not in graph"),
    (lambda r: {"misinfo_rates": [0.0, float("nan")]}, ExperimentError, "RT rates must be in [0, 1]"),
    (lambda r: {"corrective_rates": [1.5]}, ExperimentError, "RT rates must be in [0, 1]"),
    (lambda r: {"soldout_rt_rate": -0.1}, ExperimentError, "RT rates must be in [0, 1]"),
    (lambda r: {"trials": 0}, ExperimentError, "trials must be >= 1"),
    (lambda r: {"corrective_rates": []}, ExperimentError, "rate lists must be non-empty"),
])
def test_sweep_rejects_bad_input_before_any_run(small_replica, fitted, monkeypatch, change, error,
                                                 message):
    def no_run(*args, **kwargs):
        raise AssertionError("a run spread before the input was checked")

    monkeypatch.setattr(counterfactual, "_lane_runs", no_run)
    r = small_replica
    kw = dict(
        graph=r.graph, seed_tweets=r.seed_tweets, model=fitted, corrective_rates=[0.0079],
        misinfo_rates=[0.05], trials=1, base_seed=0, period=r.config.period,
    )
    with pytest.raises(error) as e:
        sweep(**{**kw, **change(r)})
    assert str(e.value) == message


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
        rates = rt_rates(cell.misinfo_rate, 0.0)
        want = simulate_trial(g, seeds, model, rates, REAL_PERIOD, derive_seed(0, "trial", 0))
        assert cell.sums == (want.sum_index,)
    assert grid.cells[0].sums != grid.cells[1].sums


def test_sweep_coupled_trials_monotone_exposure(small_replica, fitted):
    """Within one trial, raising the misinformation rate adds exposure."""
    r = small_replica
    ts = derive_seed(2, "trial", 0)
    lo, hi = (
        simulate_trial(r.graph, r.seed_tweets, fitted, rt_rates(m, 0.0079), r.config.period, ts)
        for m in (0.01, 0.05)
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


# -- batched corrective reduction against the single-level reference ---------


def single_level_prune(graph, cascades, keeps):
    """`_prune` as it was before lanes: each cascade keeps the users in its
    array of `keeps`, closed under visibility, as a pruned `Cascade`."""
    n, g = graph.n_users, len(cascades)
    if not g:
        return []
    ev = _events(cascades)
    owner = np.repeat(np.arange(g), [len(c.events) for c in cascades])
    key = owner * n + ev["user"]
    wanted = np.concatenate([i * n + k for i, k in enumerate(keeps)])
    rows = np.flatnonzero(np.isin(key, wanted))
    authors = [c.seed.author for c in cascades]
    actor = np.concatenate([np.arange(g) * n + authors, key[rows]])
    row_keys = np.arange(len(rows)) * n + ev["user"][rows]
    dst, followed = np.divmod(_with_neighbors(graph._follows, row_keys, n), n)
    followed += owner[rows][dst] * n
    by_actor = np.argsort(actor, kind="stable")
    src = by_actor[np.minimum(np.searchsorted(actor[by_actor], followed), len(actor) - 1)]
    dst += g
    edge = (actor[src] == followed) & (src < dst)
    src, dst = src[edge], dst[edge]
    kept = np.arange(len(actor)) < g
    while True:
        new = np.zeros_like(kept)
        new[dst[kept[src]]] = True
        if not (new & ~kept).any():
            break
        kept |= new
    rows = rows[kept[g:]]
    bounds = np.searchsorted(owner[rows], np.arange(g + 1))
    return [Cascade(c.seed, ev[rows[a:b]]) for c, a, b in zip(cascades, bounds[:-1], bounds[1:])]


def single_level_reduce(graph, cascades, model, retention, seed, period):
    """`reduce_corrective` at one level and seed, as it was before batching."""
    corrective = [c for c in cascades if c.seed.category is TweetCategory.CORRECTIVE]
    others = [c for c in cascades if c.seed.category is not TweetCategory.CORRECTIVE]
    keeps = [sample_keep_set(c, retention, seed) for c in corrective]
    pruned = single_level_prune(graph, corrective, keeps)
    matrix = exposure_matrix(graph, others + pruned, period)
    kept = sum(len(c.events) for c in pruned)
    return TrialResult(matrix, sum_index(predict(model, matrix)), kept)


def assert_batch_matches_reference(graph, cascades, model, retentions, seeds, period=REAL_PERIOD):
    results = reduce_corrective(graph, cascades, model, retentions, seeds, period)
    assert len(results) == len(seeds)
    for t, seed in enumerate(seeds):
        assert len(results[t]) == len(retentions)
        for i, r in enumerate(retentions):
            assert results[t][i] == single_level_reduce(graph, cascades, model, r, seed, period)
    return results


LEVELS = tuple(r / CORRECTIVE_RATE_LEVELS[0] for r in CORRECTIVE_RATE_LEVELS)


def test_reduce_corrective_matches_single_level_reference(small_replica, fitted):
    r = small_replica
    results = assert_batch_matches_reference(
        r.graph, r.cascades, fitted, (0.0, 0.2, 0.5, *LEVELS[:3]), [0, 1, 42, 7], r.config.period
    )
    assert len({res[0].sum_index for res in results}) == 1  # nothing kept, whatever the seed


def special_cascades():
    """Corrective cascades with 0 and 1 retweets, one whose author
    retweets their own tweet, and one not closed under visibility, beside
    a misinformation and a soldout cascade.

    Users 1-4 follow the corrective author 0, 5 follows 1, 6 follows 5,
    and 7 follows no one; 8 and 9 author the other categories and 3 and 4
    follow them.
    """
    g = SocialGraph(10, [(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (6, 5), (3, 8), (4, 9)])
    day = REAL_PERIOD[0].toordinal()

    def tweet(tid, author, cat, seq, events):
        return Cascade(SeedTweet(tid, author, cat, REAL_PERIOD[0], seq), events)

    corrective = TweetCategory.CORRECTIVE
    return g, [
        tweet("none", 0, corrective, -6, ()),
        tweet("one", 0, corrective, -5, [(1, day + 1, 1)]),
        tweet("self", 0, corrective, -4, [(0, day + 1, 2), (1, day + 1, 3), (5, day + 2, 9)]),
        # 7 follows no one and 5 follows no actor of this tweet, so even
        # full retention drops their retweets
        tweet("open", 0, corrective, -3, [(2, day, 4), (7, day + 1, 5), (5, day + 2, 6)]),
        tweet("chain", 0, corrective, -2, [(1, day, 7), (5, day + 1, 8), (6, day + 2, 10)]),
        tweet("mis", 8, TweetCategory.MISINFORMATION, -1, [(3, day + 1, 11)]),
        tweet("sold", 9, TweetCategory.SOLDOUT, 0, [(4, day + 2, 12)]),
    ]


# (levels, seeds): lanes filling one `LANES` group exactly, one past it, and 72
@pytest.mark.parametrize("n_levels, n_seeds", [(4, 16), (5, 13), (6, 12)])
def test_reduce_corrective_special_cascades_over_64_lanes(n_levels, n_seeds):
    g, cascades = special_cascades()
    levels, seeds = LEVELS[:n_levels], list(range(n_seeds))
    results = assert_batch_matches_reference(g, cascades, reference_model(10), levels, seeds)
    # the two invisible retweets go at full retention: 10 offered, 8 kept
    assert {trial[0].corrective_retweeters_kept for trial in results} == {8}
    assert len(levels) * len(seeds) >= 64


def test_reduce_corrective_without_corrective_retweets():
    g, cascades = special_cascades()
    model = reference_model(10)
    bare = [
        Cascade(c.seed, ()) if c.seed.category is TweetCategory.CORRECTIVE else c
        for c in cascades
    ]
    results = assert_batch_matches_reference(g, bare, model, (0.0, 0.5, 1.0), [3, 4])
    assert {res.corrective_retweeters_kept for trial in results for res in trial} == {0}
    # no corrective cascade at all, and no level or no seed
    others = [c for c in cascades if c.seed.category is not TweetCategory.CORRECTIVE]
    assert_batch_matches_reference(g, others, model, (0.0, 1.0), [3])
    assert reduce_corrective(g, cascades, model, (), [3], REAL_PERIOD) == [[]]
    assert reduce_corrective(g, cascades, model, (0.5,), [], REAL_PERIOD) == []


def test_reduce_corrective_when_pruning_leaves_no_edges():
    # no retweeter follows the author or another retweeter
    g = SocialGraph(4, [(0, 1), (0, 2)])
    day = REAL_PERIOD[0].toordinal()
    seed_tweet = SeedTweet("c", 0, TweetCategory.CORRECTIVE, REAL_PERIOD[0], -1)
    cascades = [Cascade(seed_tweet, [(1, day, 1), (2, day, 2), (3, day + 1, 3)])]
    model = reference_model(4)
    results = assert_batch_matches_reference(g, cascades, model, (0.0, 0.5, 1.0), [0, 9])
    assert {res.corrective_retweeters_kept for trial in results for res in trial} == {0}


def test_reduce_corrective_matches_reference_on_random_graphs():
    rng = np.random.default_rng(2024)
    categories = list(TweetCategory)
    for _ in range(40):
        g = random_graph(rng, max_nodes=10)
        cascades = [
            _random_cascade(rng, g, cat=categories[int(rng.integers(3))])
            for _ in range(int(rng.integers(1, 5)))
        ]
        cascades = [
            Cascade(replace(c.seed, tweet_id=f"t{i}", seq=-len(cascades) + i), c.events)
            for i, c in enumerate(cascades)
        ]
        levels = sorted(rng.uniform(0, 1, 3).tolist()) + [0.0, 1.0]
        assert_batch_matches_reference(g, cascades, reference_model(g.n_users), levels, [1, 2, 3])
