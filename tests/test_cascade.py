import io
import re
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DAY0, random_graph
from infodemic._rng import derive_seed, uniform_for_users
from infodemic.cascade import (
    Cascade,
    CascadeError,
    SeedTweet,
    TweetCategory,
    load_retweets,
    load_seed_tweets,
    prune_cascade,
    sample_keep_set,
    save_cascades,
    simulate_cascades,
)
from infodemic.graph import SocialGraph


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
    out.update(int(x) for x in graph.followers_array(cascade.seed.author))
    for user, _, seq in cascade.events.tolist():
        if seq >= seq_limit:
            break
        out.add(user)
        out.update(int(x) for x in graph.followers_array(user))
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
    pruned = prune_cascade(g, c, keep=[2])
    assert len(pruned.events) == 0


def test_prune_keep_everyone_is_identity():
    g = SocialGraph(3, [(1, 0), (2, 1)])
    c = cascade([ev(1, 1), ev(2, 2)])
    assert prune_cascade(g, c, keep=[1, 2]) == c


def test_prune_keeps_an_author_retweeting_its_own_tweet():
    g = SocialGraph(3, [(1, 0), (2, 1)])
    c = cascade([ev(0, 1), ev(1, 2), ev(2, 3)])
    for keep in ([0, 1, 2], [0, 2], [1, 2]):
        assert prune_cascade(g, c, keep) == brute_force_prune(g, c, keep)
    assert prune_cascade(g, c, [0, 1, 2]) == c


def test_prune_rejects_non_retweeters():
    g = SocialGraph(3, [(1, 0)])
    c = cascade([ev(1, 1)])
    with pytest.raises(CascadeError):
        prune_cascade(g, c, keep=[2])


def test_prune_matches_fixpoint_oracle_randomized():
    rng = np.random.default_rng(99)
    for _ in range(100):
        g = random_graph(rng)
        c = _random_cascade(rng, g)
        users = c.retweeters.tolist()
        keep = {u for u in users if rng.random() < 0.6}
        assert prune_cascade(g, c, keep) == brute_force_prune(g, c, keep)


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
                       corrective_blocks_misinfo=False, seq_start=None):
    """Per-tweet x per-day diffusion loop: the engine's specification."""
    start, end = period
    n = graph.n_users
    seeds = sorted(seeds, key=lambda s: (s.day, s.seq))
    seq = (max((s.seq for s in seeds), default=0) + 1) if seq_start is None else seq_start
    exposed = [np.zeros(n, dtype=bool) for _ in seeds]
    events = [[] for _ in seeds]
    pending = [np.zeros(0, dtype=np.int64) for _ in seeds]
    corrective_seen = np.zeros(n, dtype=bool)
    day = start
    while day <= end:
        seen_at_open = corrective_seen.copy()
        newly = [np.zeros(0, dtype=np.int64) for _ in seeds]
        for i, s in enumerate(seeds):
            fresh = []
            if s.day == day:
                fresh.append(np.concatenate([[s.author], graph.followers_array(s.author)]))
            for u in pending[i]:
                events[i].append((int(u), day.toordinal(), seq))
                seq += 1
                fresh.append(np.concatenate([[u], graph.followers_array(int(u))]))
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


RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def simulation_cases(draw):
    """Small graph, seeds dated before/inside/after the period (several
    per author and day), rates at and between 0 and 1, both flags."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    graph = SocialGraph(n, [p for p in draw(st.lists(pairs, max_size=40)) if p[0] != p[1]])
    days = draw(st.integers(1, 6))
    period = (DAY0, DAY0 + timedelta(days=days - 1))
    authors = st.integers(0, min(n - 1, 2))  # few authors: shared author-days
    specs = draw(st.lists(
        st.tuples(authors, st.integers(-2, days + 1), st.sampled_from(list(TweetCategory))),
        max_size=8,
    ))
    seqs = draw(st.permutations(range(-len(specs), 0)))
    seeds = [
        SeedTweet(f"t{i}", a, cat, DAY0 + timedelta(days=d), q)
        for i, ((a, d, cat), q) in enumerate(zip(specs, seqs))
    ]
    rates = {c: draw(RATES) for c in TweetCategory if draw(st.booleans())}
    kw = dict(
        corrective_blocks_misinfo=draw(st.booleans()),
        seq_start=draw(st.one_of(st.none(), st.integers(0, 2**62))),
    )
    return graph, seeds, rates, period, draw(st.integers(0, 2**64 - 1)), kw


@given(simulation_cases())
@settings(max_examples=300, deadline=None)
def test_simulation_matches_per_tweet_reference(case):
    graph, seeds, rates, period, rng_seed, kw = case
    got = simulate_cascades(graph, seeds, rates, period, rng_seed, **kw)
    assert got == reference_simulate(graph, seeds, rates, period, rng_seed, **kw)


def first_correction_days(graph, cascades, period):
    """Per user, the period day index of the first corrective exposure
    (as an actor or a follower of one); the period's length for never."""
    start, end = period
    n_days = (end - start).days + 1
    first = np.full(graph.n_users, n_days)
    for c in cascades:
        assert c.seed.category is TweetCategory.CORRECTIVE
        posts = [(c.seed.day.toordinal(), c.seed.author)]
        for day, actor in posts + [(day, user) for user, day, _ in c.events.tolist()]:
            d = day - start.toordinal()
            if 0 <= d < n_days:
                for u in [actor, *graph.followers_array(actor).tolist()]:
                    first[u] = min(first[u], d)
    return first


@given(simulation_cases())
@settings(max_examples=200, deadline=None)
def test_misinfo_run_given_first_correction_days_matches_joint_run(case):
    graph, seeds, rates, period, rng_seed, _ = case
    joint = simulate_cascades(
        graph, seeds, rates, period, rng_seed, corrective_blocks_misinfo=True
    )
    corrective = [s for s in seeds if s.category is TweetCategory.CORRECTIVE]
    misinfo = [s for s in seeds if s.category is TweetCategory.MISINFORMATION]
    first = first_correction_days(
        graph, simulate_cascades(graph, corrective, rates, period, rng_seed), period
    )
    alone = simulate_cascades(
        graph, misinfo, rates, period, rng_seed,
        corrective_blocks_misinfo=True, first_correction=first,
    )

    def acts(cascades):
        return {
            c.seed.tweet_id: [(user, day) for user, day, _ in c.events.tolist()]
            for c in cascades
            if c.seed.category is TweetCategory.MISINFORMATION
        }

    assert acts(alone) == acts(joint)


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
