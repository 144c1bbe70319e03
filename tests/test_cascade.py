import io
import re
import tracemalloc
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DAY0, NOT_A_VALUE, followers, prune, random_graph, table_with_bad_row
from infodemic._rng import derive_seed, uniform_for_users
from infodemic.cascade import (
    EVENT,
    LANES,
    Cascade,
    CascadeError,
    SeedTweet,
    TweetCategory,
    _lane_runs,
    _prune,
    _reach,
    _split,
    load_retweets,
    load_seed_tweets,
    sample_keep_set,
    save_cascades,
    simulate_cascades,
)
from infodemic.exposure import _category_code
from infodemic.graph import SocialGraph
from infodemic.replica import ReplicaConfig, build_replica


def seed(author=0, day=DAY0, seq=0, cat=TweetCategory.CORRECTIVE, tid="t0"):
    return SeedTweet(tweet_id=tid, author=author, category=cat, day=day, seq=seq)


def ev(user, seq, day=DAY0):
    """One event row: (user, day ordinal, seq)."""
    return (user, day.toordinal(), seq)


def cascade(events, **kw):
    return Cascade(seed(**kw), tuple(events))


# -- structure validation ----------------------------------------------------


def test_events_must_increase_in_seq():
    with pytest.raises(CascadeError):
        cascade([ev(1, 2), ev(2, 2)])
    with pytest.raises(CascadeError):
        cascade([ev(1, 0)])  # equal to seed seq


def test_duplicate_retweeter_rejected():
    with pytest.raises(CascadeError):
        cascade([ev(1, 1), ev(1, 2)])


def test_event_before_seed_day_rejected():
    with pytest.raises(CascadeError):
        cascade([ev(1, 1, day=DAY0 - timedelta(days=1))])


SPLIT_SEEDS = [seed(tid=f"t{k}", seq=k - 3) for k in range(3)]
# a run of three cascades in seq order, interleaved: seed k's events are its rows
SPLIT_TWEET = np.array([0, 1, 2, 0, 1, 2])
SPLIT_EVENTS = [ev(1, 1), ev(1, 2), ev(2, 3), ev(2, 4), ev(3, 5), ev(4, 6)]


def corrupt(events, how):
    """`events`, three rows of one cascade, broken in each way of `how`."""
    events = list(events)
    if "seq" in how:
        events[1] = events[1][:2] + (events[0][2],)
    if "user" in how:
        events[1] = (events[0][0],) + events[1][1:]
    if "day" in how:
        events[0] = (events[0][0], DAY0.toordinal() - 1, events[0][2])
    return events


@pytest.mark.parametrize("how", [["seq"], ["user"], ["day"], ["user", "day"], ["seq", "day"]])
def test_split_raises_what_its_first_broken_cascade_raises(how):
    """A run with cascade 1 broken raises the `CascadeError` that building
    that cascade raises; cascade 2, broken by an earlier check, does not
    change which."""
    events = list(SPLIT_EVENTS)
    mine = np.flatnonzero(SPLIT_TWEET == 1)
    for i, row in zip(mine, corrupt([events[i] for i in mine], how)):
        events[i] = row
    with pytest.raises(CascadeError) as alone:
        Cascade(SPLIT_SEEDS[1], [events[i] for i in mine])
    later = np.flatnonzero(SPLIT_TWEET == 2)
    for i, row in zip(later, corrupt([events[i] for i in later], ["seq", "user"])):
        events[i] = row
    with pytest.raises(CascadeError) as run:
        _split(SPLIT_SEEDS, SPLIT_TWEET, np.array(events, dtype=EVENT))
    assert str(run.value) == str(alone.value)


def reference_check(seed, events):
    """The error text of the checks a cascade made alone, one at a time,
    or None: the reference for `_split`'s checks of a whole run."""
    if not len(events):
        return None
    seq, users = events["seq"], np.sort(events["user"])
    if seq[0] <= seed.seq or (seq[1:] <= seq[:-1]).any():
        return "events must be strictly increasing in seq"
    if (twice := users[1:][users[1:] == users[:-1]]).size:
        return f"user {twice[0]} retweets more than once"
    if events["day"].min() < seed.day.toordinal():
        return "event day precedes seed day"
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_split_checks_equal_each_cascade_checked_alone(data):
    """Runs of up to five cascades with users, seqs and days drawn so that
    each check often fails: `_split` raises the reference error of the
    first failing cascade in seed order, and otherwise returns them all."""
    count = data.draw(st.integers(1, 5))
    seeds = [seed(tid=f"t{k}", seq=data.draw(st.integers(-3, 3))) for k in range(count)]
    # (seed, user, day offset, seq) per event
    row = st.tuples(st.integers(0, count - 1), st.integers(0, 4), st.integers(-1, 1),
                    st.integers(-3, 12))
    rows = data.draw(st.lists(row, max_size=12))
    tweet = np.array([r[0] for r in rows], dtype=np.int64)
    run = np.array([(u, DAY0.toordinal() + d, q) for _, u, d, q in rows], dtype=EVENT)
    alone = [run[tweet == k] for k in range(count)]
    want = next(filter(None, (reference_check(s, ev) for s, ev in zip(seeds, alone))), None)
    if want is None:
        assert _split(seeds, tweet, run) == [Cascade(s, ev) for s, ev in zip(seeds, alone)]
    else:
        with pytest.raises(CascadeError) as got:
            _split(seeds, tweet, run)
        assert str(got.value) == want


def test_split_cascades_are_read_only_views_equal_to_built_ones():
    run = np.array(SPLIT_EVENTS, dtype=EVENT)
    got = _split(SPLIT_SEEDS, SPLIT_TWEET, run)
    assert got == [Cascade(s, run[SPLIT_TWEET == k]) for k, s in enumerate(SPLIT_SEEDS)]
    assert all(not c.events.flags.writeable for c in got)
    assert got[0].events.base is got[2].events.base is not None


def test_unknown_category_label():
    with pytest.raises(CascadeError):
        TweetCategory.from_label("satire")
    assert TweetCategory.from_label(" Corrective ") is TweetCategory.CORRECTIVE


# -- visibility --------------------------------------------------------------


def test_visible_set_grows_with_events():
    g = SocialGraph(5, [(1, 0), (2, 1), (3, 2), (4, 3)])
    c = cascade([ev(1, 1), ev(2, 2)])
    assert visible_set(g, c, 0) == set()  # seed not yet posted
    assert visible_set(g, c, 1) == {0, 1}
    assert visible_set(g, c, 2) == {0, 1, 2}
    assert visible_set(g, c, 3) == {0, 1, 2, 3}


def visible_set(graph, cascade, seq_limit):
    """Users who could have seen the tweet before `seq_limit`.

    Includes the author and every retweeter as viewers of their own
    action.  Empty if the seed itself is not yet posted at seq_limit.
    """
    if cascade.seed.seq >= seq_limit:
        return set()
    out = {cascade.seed.author}
    out.update(int(x) for x in followers(graph, cascade.seed.author))
    for user, _, seq in cascade.events.tolist():
        if seq >= seq_limit:
            break
        out.add(user)
        out.update(int(x) for x in followers(graph, user))
    return out


def brute_force_prune(graph, c, keep):
    """Remove events until every survivor is visible given survivors only."""
    events = [e for e in c.events.tolist() if e[0] in keep]
    while True:
        ok = []
        for user, day, seq in events:
            sub = Cascade(c.seed, [x for x in events if x[2] < seq])
            if user in visible_set(graph, sub, seq):
                ok.append((user, day, seq))
        if ok == events:
            return Cascade(c.seed, events)
        events = ok


def test_prune_removes_invisible_chain():
    # 1 sees the author; 2 only sees 1; drop 1 and 2's retweet must go too
    g = SocialGraph(3, [(1, 0), (2, 1)])
    c = cascade([ev(1, 1), ev(2, 2)])
    pruned = prune(g, c, keep=[2])
    assert len(pruned.events) == 0


def test_prune_keep_everyone_is_identity():
    g = SocialGraph(3, [(1, 0), (2, 1)])
    c = cascade([ev(1, 1), ev(2, 2)])
    assert prune(g, c, keep=[1, 2]) == c


def test_prune_keeps_an_author_retweeting_its_own_tweet():
    g = SocialGraph(3, [(1, 0), (2, 1)])
    c = cascade([ev(0, 1), ev(1, 2), ev(2, 3)])
    for keep in ([0, 1, 2], [0, 2], [1, 2]):
        assert prune(g, c, keep) == brute_force_prune(g, c, keep)
    assert prune(g, c, [0, 1, 2]) == c


def test_prune_rejects_non_retweeters():
    g = SocialGraph(3, [(1, 0)])
    c = cascade([ev(1, 1)])
    with pytest.raises(CascadeError):
        prune(g, c, keep=[2])


@pytest.mark.parametrize("shape", [(2, 1), (0, 1), (1,), (1, 1, 1)])
def test_prune_rejects_a_mask_without_one_row_per_event(shape):
    g = SocialGraph(3, [(1, 0)])
    c = cascade([ev(1, 1)])
    with pytest.raises(CascadeError):
        _prune(g, [c], np.ones(shape, dtype=bool))


def test_prune_matches_fixpoint_oracle_randomized():
    rng = np.random.default_rng(99)
    for _ in range(100):
        g = random_graph(rng)
        c = _random_cascade(rng, g)
        users = c.retweeters.tolist()
        keep = {u for u in users if rng.random() < 0.6}
        assert prune(g, c, keep) == brute_force_prune(g, c, keep)


def _random_cascade(rng, g, cat=TweetCategory.CORRECTIVE):
    """Arbitrary structurally valid cascade (not necessarily realizable)."""
    author = int(rng.integers(g.n_users))
    events = []
    used = {author}
    day = DAY0
    for i, u in enumerate(rng.permutation(g.n_users)[: rng.integers(0, g.n_users)]):
        if int(u) in used:
            continue
        used.add(int(u))
        if rng.random() < 0.4:
            day = day + timedelta(days=1)
        events.append(ev(int(u), i + 1, day=day))
    return Cascade(seed(author=author, cat=cat), events)


# -- keep-set sampling -------------------------------------------------------


def test_sample_keep_set_sizes():
    c = cascade([ev(i, i) for i in range(1, 11)])
    assert len(sample_keep_set(c, 0.0, 1)) == 0
    assert len(sample_keep_set(c, 0.25, 1)) == 3  # round-half-up of 2.5
    assert len(sample_keep_set(c, 1.0, 1)) == 10


def test_sample_keep_set_deterministic_and_nested():
    c = cascade([ev(i, i) for i in range(1, 21)])
    for r1, r2 in [(0.2, 0.5), (0.5, 0.9), (0.0, 1.0)]:
        k1, k2 = sample_keep_set(c, r1, 7), sample_keep_set(c, r2, 7)
        assert set(k1.tolist()) <= set(k2.tolist())
    assert np.array_equal(sample_keep_set(c, 0.5, 7), sample_keep_set(c, 0.5, 7))
    assert not np.array_equal(sample_keep_set(c, 0.5, 7), sample_keep_set(c, 0.5, 8))


# (retweet count, seed) -> `sample_keep_set` at full retention of a cascade
# of users 1..count; under two retweets the keep order is the only one
KEEP_ORDER_PINS = {
    (0, 0): [],
    (1, 0): [1],
    (1, 5): [1],
    (2, 0): [2, 1],
    (2, 5): [1, 2],
    (3, 0): [2, 1, 3],
    (3, 5): [3, 2, 1],
    (7, 0): [7, 5, 2, 1, 4, 6, 3],
    (7, 5): [2, 7, 3, 6, 5, 1, 4],
}


@pytest.mark.parametrize("count, s", sorted(KEEP_ORDER_PINS))
def test_sample_keep_set_pinned(count, s):
    c = cascade([ev(u, u) for u in range(1, count + 1)])
    order = KEEP_ORDER_PINS[count, s]
    for r in (0.0, 0.5, 1.0):
        got = sample_keep_set(c, r, s)
        assert got.dtype == np.int64
        assert got.tolist() == order[: int(np.floor(r * count + 0.5))]


@given(st.floats(min_value=-5, max_value=5).filter(lambda r: not 0 <= r <= 1))
def test_sample_keep_set_rejects_bad_retention(r):
    c = cascade([ev(1, 1)])
    with pytest.raises(CascadeError):
        sample_keep_set(c, r, 0)


# -- simulation --------------------------------------------------------------


def days(n):
    """The n-day simulation period starting at DAY0."""
    return (DAY0, DAY0 + timedelta(days=n - 1))


CORRECTIVE = TweetCategory.CORRECTIVE
MISINFORMATION = TweetCategory.MISINFORMATION


def line_graph(n):
    # i+1 follows i, so content hops one user per day
    return SocialGraph(n, [(i + 1, i) for i in range(n - 1)])


def test_simulation_certain_rate_advances_one_hop_per_day():
    g = line_graph(5)
    (c,) = simulate_cascades(g, [seed(author=0)], {CORRECTIVE: 1.0}, days(4), 0)
    # day 0: 1 exposed and decides; lands day 1; 2 decides day 1, lands day 2...
    assert c.events["user"].tolist() == [1, 2, 3]
    assert c.events["day"].tolist() == [(DAY0 + timedelta(days=d)).toordinal() for d in (1, 2, 3)]


def test_simulation_zero_rate_never_spreads():
    g = line_graph(4)
    (c,) = simulate_cascades(g, [seed(author=0)], {CORRECTIVE: 0.0}, days(5), 0)
    assert len(c.events) == 0


def test_simulation_user_decides_once_per_tweet():
    # 2 follows both 0 and 1; with rate 1.0, 2 retweets exactly once
    g = SocialGraph(3, [(1, 0), (2, 0), (2, 1)])
    (c,) = simulate_cascades(g, [seed(author=0)], {CORRECTIVE: 1.0}, days(4), 0)
    assert sorted(c.retweeters.tolist()) == [1, 2]


def test_simulation_deterministic_given_seed():
    g = random_graph(np.random.default_rng(3), max_nodes=40)
    s = seed(author=0)
    (a,) = simulate_cascades(g, [s], {CORRECTIVE: 0.5}, days(5), 11)
    (b,) = simulate_cascades(g, [s], {CORRECTIVE: 0.5}, days(5), 11)
    assert a == b


def test_simulation_monotone_coupled_in_rate():
    rng = np.random.default_rng(17)
    for trial in range(10):
        g = random_graph(rng, max_nodes=30)
        s = seed(author=int(rng.integers(g.n_users)))
        (low,) = simulate_cascades(g, [s], {CORRECTIVE: 0.2}, days(6), trial)
        (high,) = simulate_cascades(g, [s], {CORRECTIVE: 0.7}, days(6), trial)
        assert set(low.retweeters.tolist()) <= set(high.retweeters.tolist())


def test_simulation_events_valid_cascade_invariants():
    rng = np.random.default_rng(23)
    g = random_graph(rng, max_nodes=30)
    seeds = [
        seed(author=0, tid="a", seq=0),
        seed(author=1, tid="b", seq=1, cat=TweetCategory.MISINFORMATION),
    ]
    out = simulate_cascades(
        g, seeds, {c: 0.8 for c in TweetCategory}, (DAY0, DAY0 + timedelta(days=5)), 4
    )
    for c in out:
        # Cascade.__post_init__ validates seq order/dedup; check visibility too
        for user, _, seq in c.events.tolist():
            sub = Cascade(c.seed, c.events[c.events["seq"] < seq])
            assert user in visible_set(g, sub, seq)


def test_corrective_exposure_blocks_misinfo_retweets():
    # both tweets reach user 1 on day 0; user 1 would retweet both,
    # but prior corrective exposure suppresses the misinformation retweet
    g = SocialGraph(3, [(1, 0), (2, 1)])
    seeds = [
        seed(author=0, tid="c", seq=0, cat=TweetCategory.CORRECTIVE),
        seed(author=0, tid="m", seq=1, cat=TweetCategory.MISINFORMATION,
             day=DAY0 + timedelta(days=1)),
    ]
    period = (DAY0, DAY0 + timedelta(days=4))
    blocked = simulate_cascades(
        g, seeds, {c: 1.0 for c in TweetCategory}, period, 0,
        corrective_blocks_misinfo=True,
    )
    free = simulate_cascades(g, seeds, {c: 1.0 for c in TweetCategory}, period, 0)
    mis_blocked = next(c for c in blocked if c.seed.tweet_id == "m")
    mis_free = next(c for c in free if c.seed.tweet_id == "m")
    assert mis_free.retweeters.tolist() == [1, 2]  # 2 hears it through 1's retweet
    assert len(mis_blocked.events) == 0


def test_corrective_author_counts_as_exposed():
    # 0 posts a correction on day 0 and sees 1's misinformation on day 1
    g = SocialGraph(2, [(0, 1)])
    seeds = [
        seed(author=0, tid="c", seq=0),
        seed(author=1, tid="m", seq=1, cat=TweetCategory.MISINFORMATION,
             day=DAY0 + timedelta(days=1)),
    ]
    rates = {TweetCategory.MISINFORMATION: 1.0}
    period = (DAY0, DAY0 + timedelta(days=3))
    free = simulate_cascades(g, seeds, rates, period, 0)
    blocked = simulate_cascades(g, seeds, rates, period, 0, corrective_blocks_misinfo=True)
    assert free[1].retweeters.tolist() == [0]
    assert len(blocked[1].events) == 0


def test_simulation_rejects_bad_inputs():
    g = line_graph(3)
    with pytest.raises(CascadeError):
        simulate_cascades(g, [seed(author=0)], {CORRECTIVE: 1.5}, days(3), 0)
    with pytest.raises(CascadeError):
        simulate_cascades(g, [seed(author=9)], {CORRECTIVE: 0.5}, days(3), 0)
    with pytest.raises(CascadeError):
        simulate_cascades(g, [seed(author=0)], {CORRECTIVE: 0.5}, days(0), 0)
    with pytest.raises(CascadeError):
        simulate_cascades(g, [seed()], {}, (DAY0, DAY0 - timedelta(days=1)), 0)


def reference_simulate(graph, seeds, rt_rates, period, rng_seed, *,
                       corrective_blocks_misinfo=False, first_correction=None):
    """Per-tweet x per-day diffusion loop: the engine's specification.
    `first_correction` holds, per user, a period day index from which the
    user counts as corrected, as a corrective run's exposure would."""
    start, end = period
    n = graph.n_users
    given = np.full(n, (end - start).days + 1) if first_correction is None else first_correction
    seeds = sorted(seeds, key=lambda s: (s.day, s.seq))
    seq = max((s.seq for s in seeds), default=0) + 1
    exposed = [np.zeros(n, dtype=bool) for _ in seeds]
    events = [[] for _ in seeds]
    pending = [np.zeros(0, dtype=np.int64) for _ in seeds]
    corrective_seen = np.zeros(n, dtype=bool)
    day = start
    while day <= end:
        seen_at_open = corrective_seen | (given < (day - start).days)
        newly = [np.zeros(0, dtype=np.int64) for _ in seeds]
        for i, s in enumerate(seeds):
            fresh = []
            if s.day == day:
                fresh.append(np.concatenate([[s.author], followers(graph, s.author)]))
            for u in pending[i]:
                events[i].append((int(u), day.toordinal(), seq))
                seq += 1
                fresh.append(np.concatenate([[u], followers(graph, int(u))]))
            if fresh:
                cand = np.unique(np.concatenate(fresh))
                new = cand[~exposed[i][cand]]
                exposed[i][new] = True
                newly[i] = new
                if s.category is TweetCategory.CORRECTIVE:
                    corrective_seen[new] = True
        for i, s in enumerate(seeds):
            rate = rt_rates.get(s.category, 0.0)
            deciders = newly[i][newly[i] != s.author]
            if rate <= 0.0 or len(deciders) == 0:
                pending[i] = np.zeros(0, dtype=np.int64)
                continue
            hit = uniform_for_users(derive_seed(rng_seed, "rt", s.tweet_id), deciders) < rate
            if corrective_blocks_misinfo and s.category is TweetCategory.MISINFORMATION:
                hit &= ~seen_at_open[deciders]
            pending[i] = deciders[hit]
        day += timedelta(days=1)
    return [Cascade(s, evs) for s, evs in zip(seeds, events)]


# 0, 1 and anything between, but mostly rates at which cascades spread
RATES = st.one_of(st.floats(0.25, 1.0), st.sampled_from([1.0, 0.0]), st.floats(0.0, 1.0))


@st.composite
def simulation_cases(draw):
    """Small graph of at least 3n drawn pairs, mostly into the few
    authors, so that seeds have followers; at least two seeds, dated
    mostly inside the period but also before and after it (several per
    author and day); a rate for every category but at most one, at and
    between 0 and 1; both flags.  Large graphs, long periods and rates
    of at least 0.25 come first, so that most cases spread."""
    n = draw(st.integers(0, 11).map(lambda k: 12 - k))  # the largest first
    authors = st.integers(0, min(n - 1, 2))  # few authors: shared author-days
    # followers counted down from the last user and followees mostly
    # authors, so that the simplest pairs are edges into an author
    follower = st.integers(0, n - 1).map(lambda u: n - 1 - u)
    pairs = st.tuples(follower, authors | st.integers(0, n - 1))
    edges = draw(st.lists(pairs, min_size=3 * n, max_size=48))
    graph = SocialGraph(n, [p for p in edges if p[0] != p[1]])
    days = draw(st.integers(0, 5).map(lambda k: 6 - k))  # the longest first
    period = (DAY0, DAY0 + timedelta(days=days - 1))
    specs = draw(st.lists(
        st.tuples(authors, st.integers(0, max(days - 2, 0)) | st.integers(-2, days + 1),
                  st.sampled_from(list(TweetCategory))),
        min_size=2, max_size=8,
    ))
    seqs = draw(st.permutations(range(-len(specs), 0)))
    seeds = [
        SeedTweet(f"t{i}", a, cat, DAY0 + timedelta(days=d), q)
        for i, ((a, d, cat), q) in enumerate(zip(specs, seqs))
    ]
    left_out = draw(st.sampled_from([None, *TweetCategory]))  # its rate defaults to 0
    rates = {c: draw(RATES) for c in TweetCategory if c is not left_out}
    kw = dict(corrective_blocks_misinfo=draw(st.booleans()))
    return graph, seeds, rates, period, draw(st.integers(0, 2**64 - 1)), kw


@given(simulation_cases())
@settings(max_examples=300, deadline=None)
def test_simulation_matches_per_tweet_reference(case):
    graph, seeds, rates, period, rng_seed, kw = case
    got = simulate_cascades(graph, seeds, rates, period, rng_seed, **kw)
    assert got == reference_simulate(graph, seeds, rates, period, rng_seed, **kw)


def test_simulation_matches_per_tweet_reference_on_denser_graphs():
    """Graphs of up to 30 users with many paths and every category at
    once, so that corrections often reach users before misinformation
    does: with the flag, the gate acts in at least one case in six."""
    rng = np.random.default_rng(27)
    gated = 0
    for case in range(60):
        graph = random_graph(rng, max_nodes=30)
        seeds = [
            SeedTweet(f"t{i}", int(rng.integers(graph.n_users)), cat,
                      DAY0 + timedelta(days=int(rng.integers(-1, 4))), -i - 1)
            for i, cat in enumerate(rng.choice(list(TweetCategory), size=int(rng.integers(2, 8))))
        ]
        rates = {c: float(rng.choice([0.0, 1.0, *rng.uniform(0, 1, 2)])) for c in TweetCategory}
        free, blocked = (
            simulate_cascades(graph, seeds, rates, days(8), case, corrective_blocks_misinfo=flag)
            for flag in (False, True)
        )
        assert free == reference_simulate(graph, seeds, rates, days(8), case)
        assert blocked == reference_simulate(
            graph, seeds, rates, days(8), case, corrective_blocks_misinfo=True
        )
        gated += free != blocked
    assert gated >= 10


def day_keys(row, period):
    """The sorted `day * n_users + user` keys of a per-user row of period
    day indices, as a corrective run's reach keys hold a user's exposure;
    days past the period mean never."""
    users = np.flatnonzero(row <= (period[1] - period[0]).days)
    return np.sort(row[users] * len(row) + users)


def correction(keys, lanes):
    """A `_lane_runs` correction by which every one of `keys` gates the
    lanes of the mask `lanes`."""
    return keys, np.ones(len(keys), np.uint8), [lanes]


def lane_reach(run, lane):
    """The sorted reach keys of lane `lane` of a `_lane_runs` run."""
    return run.reach[(run.reach_lanes & (1 << lane)) > 0]


def lane_cascades(seeds, run, lane):
    """The cascades of `seeds` in lane `lane` of the `_spread` run `run`,
    numbered as `simulate_cascades` numbers its one lane: the retweet
    rows, past the seeds' own."""
    mine = len(seeds) + np.flatnonzero((run.lanes[len(seeds) :] & (1 << lane)) > 0)
    events = np.empty(len(mine), dtype=EVENT)
    events["user"], events["day"] = run.user[mine], run.day[mine]
    events["seq"] = max((s.seq for s in seeds), default=0) + 1 + np.arange(len(mine))
    return _split(seeds, run.tweet[mine], events)


@st.composite
def lane_cases(draw):
    """`simulation_cases`' seeds, all misinformation as a run holds one
    category, spread in 1-17 or about `LANES` rate lanes drawn from a few
    rates, so lanes repeat rates, hold 0 and 1 and come unsorted; with or
    without given first-correction days, one of a few rows for each lane."""
    graph, seeds, _, period, rng_seed, _ = draw(simulation_cases())
    seeds = [replace(s, category=MISINFORMATION) for s in seeds]
    rates = draw(st.lists(RATES, min_size=1, max_size=4))
    count = draw(st.integers(1, 17) | st.integers(LANES - 1, LANES + 2))
    picks = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    days = (period[1] - period[0]).days + 1
    given_days = st.lists(st.integers(0, days + 1), min_size=graph.n_users, max_size=graph.n_users)
    rows = draw(st.lists(given_days.map(np.array), min_size=1, max_size=3))
    first = draw(st.none() | st.just([rows[p % len(rows)] for p in picks[::-1]]))
    lanes = [rates[p % len(rates)] for p in picks]
    return graph, seeds, lanes, period, rng_seed, first


def assert_lanes_equal_one_lane_runs(graph, seeds, lanes, period, rng_seed, first):
    """Every lane of `_lane_runs` over misinformation `seeds`, one rate
    per lane, holds exactly the events and reach of the one-lane run at
    that lane's rate and given first-correction days, as the per-tweet
    reference loop gives them.  The lanes are gated by one correction
    per distinct row, its day keys in the lanes that take the row."""
    seeds = sorted(seeds, key=lambda s: (s.day, s.seq))
    rows = {}
    for k, row in enumerate(first or ()):
        keys, bits = rows.get(id(row), (day_keys(row, period), 0))
        rows[id(row)] = (keys, bits | 1 << k)
    runs = list(_lane_runs(
        graph, seeds, lanes, period, rng_seed,
        [correction(keys, bits) for keys, bits in rows.values()],
    ))
    assert len(runs) == len(lanes)
    assert [lane for _, lane in runs] == [i % LANES for i in range(len(lanes))]
    # a run's first rows are its seeds' posts, each in every lane on its
    # own day, inside the period or not
    for run, _ in runs:
        head = zip(*(column[: len(seeds)].tolist() for column in run[:4]))
        every = (1 << run.width) - 1
        assert list(head) == [(s.day.toordinal(), i, s.author, every) for i, s in enumerate(seeds)]
    # lanes repeat (rate, row) cases: each is worked out once
    wants = {}
    for k, (rate, (run, lane)) in enumerate(zip(lanes, runs)):
        given = None if first is None else first[k]
        if (case := (rate, id(given))) not in wants:
            wants[case] = reference_simulate(
                graph, seeds, {MISINFORMATION: rate}, period, rng_seed,
                corrective_blocks_misinfo=True, first_correction=given,
            )
        want = wants[case]
        assert lane_cascades(seeds, run, lane) == want
        reach = _category_code(graph, want, period)
        np.testing.assert_array_equal(lane_reach(run, lane), np.flatnonzero(reach))


@given(lane_cases())
@settings(max_examples=200, deadline=None)
def test_rate_lanes_equal_one_lane_runs(case):
    assert_lanes_equal_one_lane_runs(*case)


def test_rate_lanes_equal_one_lane_runs_on_denser_graphs():
    """Graphs of up to 30 users with many paths, so lanes reach a user on
    different days; a few cases hold more lanes than one run, and given
    first-correction rows repeat across lanes."""
    rng = np.random.default_rng(14)
    for case in range(30):
        graph = random_graph(rng, max_nodes=30)
        seeds = [
            SeedTweet(f"t{i}", int(rng.integers(graph.n_users)), MISINFORMATION,
                      DAY0 + timedelta(days=int(rng.integers(-1, 4))), -i - 1)
            for i in range(int(rng.integers(1, 7)))
        ]
        pool = [0.0, 1.0, *rng.uniform(0, 1, 3).round(2)]
        count = int(rng.integers(LANES + 1, LANES + 20) if case % 5 == 0 else rng.integers(9, 18))
        lanes = [float(rng.choice(pool)) for _ in range(count)]
        rows = rng.integers(0, 9, (3, graph.n_users))
        first = [rows[i % 3] for i in range(count)] if case % 2 else None
        assert_lanes_equal_one_lane_runs(graph, seeds, lanes, days(8), case, first)


def assert_pair_lanes_equal_one_lane_runs(case, corrective_rates, misinfo_rates):
    """A misinformation run with a lane per (corrective lane, misinformation
    rate) pair, each gated by its own corrective lane's reach keys, as
    `sweep` spreads it: each lane equals the one-lane run gated by that
    reach alone."""
    graph, seeds, _, period, rng_seed, _ = case
    by_day = sorted(seeds, key=lambda s: (s.day, s.seq))
    corrective = [s for s in by_day if s.category is TweetCategory.CORRECTIVE]
    misinfo = [s for s in by_day if s.category is TweetCategory.MISINFORMATION]
    width = len(misinfo_rates)
    reaches, corrections = [], []
    for j, (run, lane) in enumerate(
        _lane_runs(graph, corrective, corrective_rates, period, rng_seed)
    ):
        reaches.append(lane_reach(run, lane))
        if lane == 0:
            gated = [((1 << width) - 1) << k * width for k in range(j, j + run.width)]
            corrections.append((run.reach, run.reach_lanes, gated))
    pairs = [(reach, rate) for reach in reaches for rate in misinfo_rates]
    runs = _lane_runs(graph, misinfo, [rate for _, rate in pairs], period, rng_seed, corrections)
    for (reach, rate), (run, lane) in zip(pairs, runs, strict=True):
        ((alone, _),) = _lane_runs(graph, misinfo, [rate], period, rng_seed, [correction(reach, 1)])
        assert lane_cascades(misinfo, run, lane) == lane_cascades(misinfo, alone, 0)
        np.testing.assert_array_equal(lane_reach(run, lane), lane_reach(alone, 0))


@given(simulation_cases(), st.lists(RATES, min_size=1, max_size=5),
       st.lists(RATES, min_size=1, max_size=17))
@settings(max_examples=100, deadline=None)
def test_misinfo_pair_lanes_equal_one_lane_runs(case, corrective_rates, misinfo_rates):
    assert_pair_lanes_equal_one_lane_runs(case, corrective_rates, misinfo_rates)


@st.composite
def gated_cases(draw):
    """`simulation_cases` with one more correction on the first period day
    and misinformation by its author the day after, so misinformation
    reaches users whom a correction reached before, in every lane."""
    graph, seeds, rates, period, rng_seed, kw = draw(simulation_cases())
    author = draw(st.integers(0, graph.n_users - 1))
    seeds = [*seeds, SeedTweet("gc", author, TweetCategory.CORRECTIVE, period[0], 0),
             SeedTweet("gm", author, TweetCategory.MISINFORMATION, period[0] + timedelta(days=1), 1)]
    return graph, seeds, rates, period, rng_seed, kw


@given(gated_cases(), st.lists(RATES, min_size=9, max_size=16),
       st.lists(RATES, min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_misinfo_pair_lanes_gated_by_two_mask_bytes(case, corrective_rates, misinfo_rates):
    """9-16 corrective lanes: the corrective masks span two bytes, so a
    misinformation run's gates come from one lane table per byte."""
    assert_pair_lanes_equal_one_lane_runs(case, corrective_rates, misinfo_rates)


def test_corrective_exposures_of_one_day_join_their_lanes():
    """Two corrective tweets first reach user 2 on one day, one in both
    lanes of a corrective run and one in lane 0 only: 2's reach key that
    day holds both lanes, so the misinformation that reaches 2 the day
    after is gated in both pair lanes, as each lane's one-lane run gates
    it."""
    # 4 and 5 retweet the corrections of 0 and 1 to 2; 3 posts misinformation to 2
    graph = SocialGraph(6, [(4, 0), (5, 1), (2, 4), (2, 5), (2, 3)])
    draws = {u: uniform_for_users(derive_seed(9, "rt", f"c{u}"), [u + 4])[0] for u in (0, 1)}
    low, high = sorted(draws, key=draws.get)  # the author of the lower draw posts first
    corrective = [seed(low, seq=-3, tid=f"c{low}"), seed(high, seq=-2, tid=f"c{high}")]
    misinfo = [seed(3, DAY0 + timedelta(days=2), -1, MISINFORMATION, "m")]
    rates = [1.0, (draws[low] + draws[high]) / 2]
    case = (graph, corrective + misinfo, {}, days(4), 9, {})
    assert_pair_lanes_equal_one_lane_runs(case, rates, [1.0])
    (run, _), _ = _lane_runs(graph, corrective, rates, days(4), 9)
    # lane 1 as described: only the first correction is retweeted
    first, second = lane_cascades(corrective, run, 1)
    assert low + 4 in first.retweeters and high + 4 not in second.retweeters
    # both lanes reach 2 on day 1
    np.testing.assert_array_equal(run.reach_lanes[run.reach == 1 * graph.n_users + 2], [0b11])
    ((free, _),) = _lane_runs(graph, misinfo, [1.0], days(4), 9)
    assert 2 in lane_cascades(misinfo, free, 0)[0].retweeters
    for mis, lane in _lane_runs(graph, misinfo, [1.0, 1.0], days(4), 9,
                                [(run.reach, run.reach_lanes, [0b01, 0b10])]):
        assert 2 not in lane_cascades(misinfo, mis, lane)[0].retweeters


# -- a key decides again at every exposure, in the lanes it has not retweeted in


def rows_of(run, user):
    """The (period day index, lane mask) of each row of `user` in the
    one-tweet `_spread` run `run`, past the seed's own."""
    mine = np.flatnonzero(run.user[1:] == user) + 1
    return list(zip((run.day[mine] - DAY0.toordinal()).tolist(), run.lanes[mine].tolist()))


def never(graph):
    """A first-correction row by which no user is ever corrected."""
    return np.full(graph.n_users, 99)


def test_key_reached_in_a_second_lane_later_retweets_in_it_then():
    """u is reached on day 1 in lane 0 only, through x, who draws between
    the two lanes' rates, and on day 2 in lane 1 too, through the chain y
    -> z: it decides in lane 0 on day 1 and in lane 1 on day 2, so its
    retweets land on days 2 and 3, as each lane's one-lane run has it."""
    draws = uniform_for_users(derive_seed(9, "rt", "m"), [1, 2, 3, 4])
    order = np.argsort(-draws)
    x, y, z, u = 1 + order  # x draws highest
    graph = SocialGraph(5, [(x, 0), (y, 0), (u, x), (z, y), (u, z)])
    rates = [1.0, draws[order[:2]].mean()]
    seeds = [seed(0, cat=MISINFORMATION, tid="m")]
    assert_lanes_equal_one_lane_runs(graph, seeds, rates, days(5), 9, None)
    ((run, _), _) = _lane_runs(graph, seeds, rates, days(5), 9)
    assert rows_of(run, x) == [(1, 0b01)]
    assert rows_of(run, u) == [(2, 0b01), (3, 0b10)]


def test_retweeters_reached_again_in_a_new_lane_retweet_once_per_lane():
    """The case above for three tweets at once, each in its own six users
    and seeded on day 0, 1 or 0, and with one more retweeter v, whom z
    reaches: on each tweet's day + 2 its u, which retweeted in lane 0, is
    reached again in both lanes while other tweets' keys go into the
    retweeted-key table, and retweets in lane 1 only; reached in both
    lanes once more a day later, through v, it retweets in neither.  No
    (tweet, user) key retweets twice in a lane."""
    edges, seeds, us = [], [], []
    for k, day in enumerate((0, 1, 0)):
        # the first tweet id whose draws at the block's five users put
        # exactly one at or above lane 1's rate 0.5
        block = 6 * k + np.arange(1, 6)
        ids = map(str, range(k, 99, 3))
        draws = ((tid, uniform_for_users(derive_seed(9, "rt", tid), block)) for tid in ids)
        tid, draws = next((tid, d) for tid, d in draws if (d >= 0.5).sum() == 1)
        x, y, z, u, v = block[np.argsort(-draws)]
        edges += [(x, 6 * k), (y, 6 * k), (u, x), (z, y), (u, z), (v, z), (u, v)]
        seeds.append(seed(6 * k, DAY0 + timedelta(days=day), k - 3, MISINFORMATION, tid))
        us.append((u, v, day))
    graph = SocialGraph(18, edges)
    assert_lanes_equal_one_lane_runs(graph, seeds, [1.0, 0.5], days(7), 9, None)
    ((run, _), _) = _lane_runs(graph, seeds, [1.0, 0.5], days(7), 9)
    for u, v, day in us:
        assert rows_of(run, v) == [(day + 3, 0b11)]
        assert rows_of(run, u) == [(day + 2, 0b01), (day + 3, 0b10)]
    keys = run.tweet * graph.n_users + run.user
    for key in np.unique(keys):
        lanes = run.lanes[keys == key]
        assert np.bitwise_or.reduce(lanes) == lanes.sum(), key


def test_simulation_memory_grows_with_retweets_not_tweets_times_users():
    """One `simulate_cascades` on a 2e4-user replica holds its retweeted
    keys in a table, not in a byte per (tweet, user) of a category's run:
    its tracemalloc peak stays below half the corrective run's 229 x 2e4
    bytes (4.58 MB)."""
    replica = build_replica(ReplicaConfig(n_users=20_000, seed=1))
    seeds = replica.seed_tweets
    dense = sum(s.category is CORRECTIVE for s in seeds) * replica.graph.n_users
    assert dense == 229 * 20_000
    rates = {CORRECTIVE: 0.0079, MISINFORMATION: 0.00186, TweetCategory.SOLDOUT: 0.004}
    tracemalloc.start()
    try:
        cascades = simulate_cascades(replica.graph, seeds, rates, replica.config.period, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(c.events) for c in cascades) > 100
    assert peak < dense / 2


def test_key_reached_in_two_lanes_on_one_day_gets_one_row():
    """a and b retweet 0's tweet in one lane each, each gated in the other
    from the day before; both reach u on day 2, and its one retweet, in
    both lanes, lands on day 3."""
    a, b, u = 1, 2, 3
    graph = SocialGraph(4, [(a, 0), (b, 0), (u, a), (u, b)])
    seeds = [seed(0, DAY0 + timedelta(days=1), cat=MISINFORMATION, tid="m")]
    first = [never(graph), never(graph)]
    first[0][b], first[1][a] = 0, 0
    assert_lanes_equal_one_lane_runs(graph, seeds, [1.0, 1.0], days(5), 9, first)
    gates = [correction(day_keys(row, days(5)), 1 << lane) for lane, row in enumerate(first)]
    ((run, _), _) = _lane_runs(graph, seeds, [1.0, 1.0], days(5), 9, gates)
    assert (rows_of(run, a), rows_of(run, b)) == ([(2, 0b01)], [(2, 0b10)])
    assert rows_of(run, u) == [(3, 0b11)]


def test_key_gated_at_first_exposure_never_retweets():
    """u is gated in lane 0 from day 1 and first reached that day, by 0;
    w's retweet reaches u again on day 2 in both lanes.  u retweets in
    lane 1 only, landing on day 2, and never in lane 0."""
    w, u = 1, 2
    graph = SocialGraph(3, [(w, 0), (u, 0), (u, w)])
    seeds = [seed(0, DAY0 + timedelta(days=1), cat=MISINFORMATION, tid="m")]
    first = [never(graph), never(graph)]
    first[0][u] = 0
    assert_lanes_equal_one_lane_runs(graph, seeds, [1.0, 1.0], days(5), 9, first)
    gates = [correction(day_keys(first[0], days(5)), 0b01)]
    ((run, _), _) = _lane_runs(graph, seeds, [1.0, 1.0], days(5), 9, gates)
    assert rows_of(run, w) == [(2, 0b11)]
    assert rows_of(run, u) == [(2, 0b10)]


def test_retweeter_reached_again_gets_no_second_row():
    """u retweets on day 0's exposure in both lanes; on day 1 its own
    retweet and w's reach it again, and on day 2 v's, yet it has one row,
    landing on day 1."""
    w, v, u = 1, 2, 3
    graph = SocialGraph(4, [(w, 0), (u, 0), (v, w), (u, w), (u, v)])
    seeds = [seed(0, cat=MISINFORMATION, tid="m")]
    assert_lanes_equal_one_lane_runs(graph, seeds, [1.0, 1.0], days(5), 9, None)
    ((run, _), _) = _lane_runs(graph, seeds, [1.0, 1.0], days(5), 9)
    assert rows_of(run, v) == [(2, 0b11)]
    assert rows_of(run, u) == [(1, 0b11)]


@given(st.sampled_from([1, 8, 9, 33, 64]), st.data())
@settings(max_examples=100, deadline=None)
def test_lane_reach_is_the_union_of_each_keys_lanes(lanes, data):
    """`_reach`, and so `_lane_reach`, for masks of every width, equal or
    mixed, against a per-key union over each actor and its followers, of
    a 3-day period's posts; posts dated before or after the period and
    posts in no lane reach no one."""
    n = data.draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    graph = SocialGraph(n, [p for p in data.draw(st.lists(pairs, max_size=30)) if p[0] != p[1]])
    count = data.draw(st.integers(0, 30))
    keys = np.array(data.draw(st.lists(st.integers(-n, 4 * n - 1), min_size=count,
                                       max_size=count)), dtype=np.int64)
    day, user = np.divmod(keys, n)
    dtype = np.min_scalar_type((1 << lanes) - 1)
    masks = st.integers(0, (1 << lanes) - 1)
    masks = st.lists(masks, min_size=count, max_size=count) | masks.map(lambda m: [m] * count)
    masks = np.array(data.draw(masks), dtype=dtype)
    want = {}
    for d, u, mask in zip(day.tolist(), user.tolist(), masks.tolist()):
        for v in [u, *followers(graph, u).tolist()] if 0 <= d < 3 and mask else []:
            want[d * n + v] = want.get(d * n + v, 0) | mask
    got_keys, got_masks = _reach(graph, user, DAY0.toordinal() + day, masks, days(3))
    assert got_masks.dtype == dtype
    assert got_keys.tolist() == sorted(want)
    assert got_masks.tolist() == [want[k] for k in sorted(want)]


def test_uniform_draws_accept_per_user_keys():
    users = np.arange(50)
    keys = np.array([derive_seed(3, "rt", f"t{u % 4}") for u in users], dtype=np.uint64)
    want = np.concatenate([uniform_for_users(int(k), [u]) for k, u in zip(keys, users)])
    assert np.array_equal(uniform_for_users(keys, users), want)


def test_uniform_draws_are_stable_per_user():
    users = np.arange(100)
    a = uniform_for_users(123, users)
    b = uniform_for_users(123, users[::-1])[::-1]
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a < 1))
    assert not np.array_equal(a, uniform_for_users(124, users))


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")
    assert derive_seed("1x") != derive_seed(1, "x")


# -- CSV I/O -----------------------------------------------------------------


def test_cascade_csv_roundtrip(tmp_path):
    g = SocialGraph(4, [(1, 0), (2, 1), (3, 2)], external_ids=["u0", "u1", "u2", "u3"])
    seeds = [
        seed(author=0, tid="t0", seq=-2),
        seed(author=2, tid="t1", seq=-1, cat=TweetCategory.SOLDOUT,
             day=DAY0 + timedelta(days=1)),
    ]
    cascades = [
        Cascade(seeds[0], (ev(1, 5, day=DAY0 + timedelta(days=1)),)),
        Cascade(seeds[1], ()),
    ]
    tw, rt = tmp_path / "tweets.csv", tmp_path / "retweets.csv"
    save_cascades(cascades, tw, rt, g)
    with open(tw) as fh:
        seeds2 = load_seed_tweets(fh, g)
    with open(rt) as fh:
        back = load_retweets(fh, g, seeds2)
    assert [c.seed.tweet_id for c in back] == ["t0", "t1"]
    assert back[0].events[0]["user"] == 1
    assert back[0].events[0]["day"] == (DAY0 + timedelta(days=1)).toordinal()
    assert len(back[1].events) == 0


def test_load_seed_tweets_errors():
    g = SocialGraph(2, [(1, 0)], external_ids=["u0", "u1"])
    with pytest.raises(CascadeError):
        load_seed_tweets(io.StringIO("bad,header\n"), g)
    text = "tweet_id,author_id,category,day\nt0,u0,corrective,not-a-date\n"
    with pytest.raises(CascadeError):
        load_seed_tweets(io.StringIO(text), g)


def test_load_seed_tweets_rejects_repeated_tweet_id():
    g = SocialGraph(2, [(1, 0)], external_ids=["u0", "u1"])
    text = (
        "tweet_id,author_id,category,day\n"
        "t0,u0,corrective,2020-02-21\n"
        "t1,u0,soldout,2020-02-21\n"
        "t0,u1,misinformation,2020-02-22\n"
    )
    with pytest.raises(CascadeError, match="^line 4: tweet id 't0' repeats line 2"):
        load_seed_tweets(io.StringIO(text), g)


@pytest.mark.parametrize(
    "tweets, retweets, what",
    [
        ("t0,mallory,corrective,2020-02-21\n", "", "line 3: unknown user id 'mallory'"),
        ("t0,u0,rumour,2020-02-21\n", "", "line 3: unknown tweet category 'rumour'"),
        ("", "mallory,t0,2020-02-21,1\n", "line 2: unknown user id 'mallory'"),
        ("", "u1,t0,2020-02-21,x\n", "line 2: invalid literal"),
        # `int` takes these: digit-group `_`, Arabic-Indic and fullwidth digits
        ("", "u1,t0,2020-02-21,1_000\n", "line 2: number '1_000' is not ASCII"),
        ("", "u1,t1,2020-02-21,1\nu1,t0,2020-02-21,١٢٣٤\n",
         "line 3: number '١٢٣٤' is not ASCII"),
        ("", "u1,t1,2020-02-21,1\nu1,t0,2020-02-21,１２\n", "line 3: number '１２' is not ASCII"),
    ],
)
def test_cascade_loader_value_errors_are_line_numbered(tweets, retweets, what):
    g = SocialGraph(2, [(1, 0)], external_ids=["u0", "u1"])
    text = "tweet_id,author_id,category,day\nt1,u0,soldout,2020-02-21\n" + tweets
    with pytest.raises(CascadeError, match=f"^{what}"):
        seeds = load_seed_tweets(io.StringIO(text), g)
        seeds.append(seed(author=0, tid="t0", seq=-5))
        load_retweets(io.StringIO("user_id,tweet_id,day,seq\n" + retweets), g, seeds)


def test_load_retweets_unknown_tweet():
    g = SocialGraph(2, [(1, 0)], external_ids=["u0", "u1"])
    seeds = [seed(author=0, tid="t0", seq=-1)]
    text = "user_id,tweet_id,day,seq\nu1,phantom,2020-02-21,1\n"
    with pytest.raises(CascadeError):
        load_retweets(io.StringIO(text), g, seeds)


@pytest.mark.parametrize(
    "rows, line, what",
    [
        # repeated across two cascades
        ("u1,t0,2020-02-22,5\nu0,t1,2020-02-22,5\n", 3, "repeats line 2"),
        # repeated within one cascade
        ("u1,t0,2020-02-22,5\nu2,t0,2020-02-23,5\n", 3, "repeats line 2"),
        # equal to the seq load_seed_tweets gave a seed (-2 and -1)
        ("u1,t0,2020-02-22,4\nu2,t0,2020-02-23,-1\n", 3, "seq of tweet 't1'"),
    ],
)
def test_load_retweets_rejects_reused_seq(rows, line, what):
    g = SocialGraph(3, [(1, 0), (2, 1)], external_ids=["u0", "u1", "u2"])
    tweets = "tweet_id,author_id,category,day\nt0,u0,corrective,2020-02-21\n"
    seeds = load_seed_tweets(io.StringIO(tweets + "t1,u2,soldout,2020-02-21\n"), g)
    with pytest.raises(CascadeError, match=f"line {line}: .*{what}"):
        load_retweets(io.StringIO("user_id,tweet_id,day,seq\n" + rows), g, seeds)


def retweets_of_two_seeds(rows: str):
    g = SocialGraph(3, [(1, 0), (2, 1)], external_ids=["u0", "u1", "u2"])
    tweets = "tweet_id,author_id,category,day\nt0,u0,corrective,2020-02-21\n"
    seeds = load_seed_tweets(io.StringIO(tweets + "t1,u2,soldout,2020-02-22\n"), g)
    return load_retweets(io.StringIO("user_id,tweet_id,day,seq\n" + rows), g, seeds)


def test_load_retweets_rejects_retweet_before_its_tweet():
    rows = "u1,t1,2020-02-22,3\nu0,t1,2020-02-21,4\n"
    want = "line 3: user 'u0' retweets tweet 't1' on 2020-02-21, before its day 2020-02-22"
    with pytest.raises(CascadeError, match=f"^{re.escape(want)}$"):
        retweets_of_two_seeds(rows)


def test_load_retweets_rejects_second_retweet_by_one_user():
    rows = "u1,t0,2020-02-22,3\nu2,t0,2020-02-22,4\nu1,t0,2020-02-23,5\n"
    want = "line 4: user 'u1' retweets tweet 't0' again (line 2)"
    with pytest.raises(CascadeError, match=f"^{re.escape(want)}$"):
        retweets_of_two_seeds(rows)
    # one user retweeting two tweets is fine
    cascades = retweets_of_two_seeds("u1,t0,2020-02-22,3\nu1,t1,2020-02-22,4\n")
    assert [len(c.events) for c in cascades] == [1, 1]


def test_load_retweets_rejects_seq_before_its_tweet():
    # load_seed_tweets gives t0 and t1 the seqs -2 and -1
    with pytest.raises(CascadeError, match="^line 2: seq -5 precedes the seq -1 of tweet 't1'$"):
        retweets_of_two_seeds("u1,t1,2020-02-22,-5\n")


@pytest.mark.parametrize(
    "rows, want",
    [
        # within one cascade
        ("u1,t0,2020-02-23,3\nu2,t0,2020-02-22,4\n",
         "line 3: seq 4 on 2020-02-22 is above seq 3 of line 2, a retweet on the later day "
         "2020-02-23"),
        # across cascades, the later-read row holding the smaller seq
        ("u0,t1,2020-02-22,7\nu1,t0,2020-02-23,6\n",
         "line 2: seq 7 on 2020-02-22 is above seq 6 of line 3, a retweet on the later day "
         "2020-02-23"),
        ("u1,t0,2020-02-22,9223372036854775808\n",
         "line 2: seq 9223372036854775808 does not fit in 64 bits"),
    ],
)
def test_load_retweets_rejects_seq_out_of_day_order(rows, want):
    with pytest.raises(CascadeError, match=f"^{re.escape(want)}$"):
        retweets_of_two_seeds(rows)


def test_load_retweets_orders_cascades_by_seq():
    # the file order is not the seq order; a day holds seqs in any order
    rows = "u2,t0,2020-02-22,9\nu1,t0,2020-02-22,4\nu0,t1,2020-02-23,12\nu1,t1,2020-02-23,10\n"
    t0, t1 = retweets_of_two_seeds(rows)
    assert t0.events.tolist() == [(1, DAY0.toordinal() + 1, 4), (2, DAY0.toordinal() + 1, 9)]
    assert t1.events["seq"].tolist() == [10, 12]


def test_load_retweets_counts_physical_lines():
    g = SocialGraph(2, [(1, 0)], external_ids=["u0", "u\n1"])
    seeds = [seed(author=0, tid="t0", seq=-1)]
    text = 'user_id,tweet_id,day,seq\n"u\n1",t0,2020-02-22,1\nu0,phantom,2020-02-22,2\n'
    with pytest.raises(CascadeError, match="^line 4: retweet of unknown tweet"):
        load_retweets(io.StringIO(text), g, seeds)


TWEETS_HEADER = "tweet_id,author_id,category,day"
GOOD_TWEETS = ["t0,u0,corrective,2020-02-21", "t1,u2,soldout,2020-02-22"]
BAD_TWEET = st.one_of(
    st.integers(1, 6).filter(lambda k: k != 4).map(lambda k: ",".join(["tb"] * k)),
    NOT_A_VALUE.map(lambda t: f"tb,u1,misinformation,{t}"),  # day
    NOT_A_VALUE.map(lambda t: f"tb,u1,{t},2020-02-21"),  # category
    NOT_A_VALUE.map(lambda t: f"tb,{t},corrective,2020-02-21"),  # user
)
GOOD_RETWEETS = ["u1,t0,2020-02-22,1", "u0,t1,2020-02-23,2"]
BAD_RETWEET = st.one_of(
    st.integers(1, 6).filter(lambda k: k != 4).map(lambda k: ",".join(["u1"] * k)),
    NOT_A_VALUE.map(lambda t: f"u2,t0,{t},5"),  # day
    NOT_A_VALUE.map(lambda t: f"{t},t0,2020-02-22,5"),  # user
    NOT_A_VALUE.map(lambda t: f"u2,{t},2020-02-22,5"),  # tweet
    NOT_A_VALUE.map(lambda t: f"u2,t0,2020-02-22,{t}"),  # seq
)
THREE_USERS = SocialGraph(3, [(1, 0), (2, 1)], external_ids=["u0", "u1", "u2"])


@given(table_with_bad_row(TWEETS_HEADER, GOOD_TWEETS, BAD_TWEET))
def test_seed_tweets_bad_row_fails_at_its_line(case):
    text, line = case
    with pytest.raises(CascadeError, match=f"^line {line}: "):
        load_seed_tweets(io.StringIO(text), THREE_USERS)


@given(table_with_bad_row("user_id,tweet_id,day,seq", GOOD_RETWEETS, BAD_RETWEET))
def test_retweets_bad_row_fails_at_its_line(case):
    text, line = case
    tweets = "".join(r + "\n" for r in [TWEETS_HEADER, *GOOD_TWEETS])
    seeds = load_seed_tweets(io.StringIO(tweets), THREE_USERS)
    with pytest.raises(CascadeError, match=f"^line {line}: "):
        load_retweets(io.StringIO(text), THREE_USERS, seeds)


# ids holding every character the table format treats specially
IDS = st.text(st.sampled_from('ab ,"\n\r#'), min_size=1, max_size=5).map(str.strip).filter(bool)


@st.composite
def id_cascades(draw):
    """(graph, cascades) over arbitrary external user and tweet ids."""
    users = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    tweets = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    g = SocialGraph(len(users), [], external_ids=users)
    dated = sorted((DAY0 + timedelta(days=draw(st.integers(0, 3))), t) for t in tweets)
    seq = 1
    cascades = []
    for i, (day, tid) in enumerate(dated):
        s = seed(author=draw(st.integers(0, len(users) - 1)), day=day, tid=tid,
                 seq=i - len(dated), cat=draw(st.sampled_from(list(TweetCategory))))
        events = []
        for u in draw(st.lists(st.integers(0, len(users) - 1), unique=True, max_size=3)):
            events.append(ev(u, seq, day=day + timedelta(days=1)))
            seq += draw(st.integers(1, 3))
        cascades.append(Cascade(s, events))
    return g, cascades


@given(id_cascades())
@settings(max_examples=150, deadline=None)
def test_cascade_csv_roundtrip_any_ids(tmp_path_factory, data):
    g, cascades = data
    d = tmp_path_factory.mktemp("cascades")
    save_cascades(cascades, d / "tweets.csv", d / "retweets.csv", g)
    with open(d / "tweets.csv", encoding="utf-8", newline="") as fh:
        seeds = load_seed_tweets(fh, g)
    with open(d / "retweets.csv", encoding="utf-8", newline="") as fh:
        assert load_retweets(fh, g, seeds) == cascades
