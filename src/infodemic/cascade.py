"""Retweet cascades: visibility, counterfactual pruning, and simulation.

A cascade is a seed tweet plus its retweet events in global sequence
order.  Visibility is defined purely by the follower graph and event
order: once the author or any retweeter has acted, all of their followers
(and the actor) can see the tweet from that event's sequence number on.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace
from datetime import date, timedelta
from enum import Enum
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from ._rng import derive_seed, uniform_for_users
from ._table import read_table, write_table
from .graph import SocialGraph, _sorted_unique

log = logging.getLogger("infodemic.cascade")

TWEET_HEADER = ["tweet_id", "author_id", "category", "day"]
RETWEET_HEADER = ["user_id", "tweet_id", "day", "seq"]


class CascadeError(ValueError):
    """Invalid cascade data or operation argument."""


class TweetCategory(Enum):
    MISINFORMATION = "misinformation"
    CORRECTIVE = "corrective"
    SOLDOUT = "soldout"

    @classmethod
    def from_label(cls, label: str) -> "TweetCategory":
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise CascadeError(f"unknown tweet category {label!r}") from None


@dataclass(frozen=True)
class SeedTweet:
    tweet_id: str
    author: int
    category: TweetCategory
    day: date
    seq: int


@dataclass(frozen=True)
class RetweetEvent:
    user: int
    tweet_id: str
    day: date
    seq: int


@dataclass(frozen=True)
class Cascade:
    seed: SeedTweet
    events: tuple[RetweetEvent, ...]

    def __post_init__(self):
        seen: set[int] = set()
        prev = self.seed.seq
        for ev in self.events:
            if ev.tweet_id != self.seed.tweet_id:
                raise CascadeError(
                    f"event tweet_id {ev.tweet_id!r} != seed {self.seed.tweet_id!r}"
                )
            if ev.seq <= prev:
                raise CascadeError("events must be strictly increasing in seq")
            if ev.user in seen:
                raise CascadeError(f"user {ev.user} retweets more than once")
            if ev.day < self.seed.day:
                raise CascadeError("event day precedes seed day")
            seen.add(ev.user)
            prev = ev.seq

    @property
    def retweeters(self) -> tuple[int, ...]:
        return tuple(ev.user for ev in self.events)


# -- visibility ------------------------------------------------------------


def visible_set(graph: SocialGraph, cascade: Cascade, seq_limit: int) -> set[int]:
    """Users who could have seen the tweet before `seq_limit`.

    Includes the author and every retweeter as viewers of their own
    action.  Empty if the seed itself is not yet posted at seq_limit.
    """
    if cascade.seed.seq >= seq_limit:
        return set()
    out: set[int] = {cascade.seed.author}
    out.update(int(x) for x in graph.followers_array(cascade.seed.author))
    for ev in cascade.events:
        if ev.seq >= seq_limit:
            break
        out.add(ev.user)
        out.update(int(x) for x in graph.followers_array(ev.user))
    return out


def prune_cascade(graph: SocialGraph, cascade: Cascade, keep: Iterable[int]) -> Cascade:
    """Counterfactually remove retweeters, then close under visibility.

    Every surviving event's user must be visible at the event's seq given
    only the surviving upstream events.  Because visibility only ever
    grows with seq, a single forward scan in seq order computes the unique
    fixpoint that iterated removal would reach in any order.
    """
    keep_set = set(int(u) for u in keep)
    extras = keep_set - set(cascade.retweeters)
    if extras:
        raise CascadeError(f"keep contains non-retweeters: {sorted(extras)[:5]}")
    visible = np.zeros(graph.n_users, dtype=bool)
    visible[cascade.seed.author] = True
    visible[graph.followers_array(cascade.seed.author)] = True
    kept: list[RetweetEvent] = []
    for ev in cascade.events:
        if ev.user in keep_set and visible[ev.user]:
            kept.append(ev)
            visible[ev.user] = True
            visible[graph.followers_array(ev.user)] = True
    return replace(cascade, events=tuple(kept))


def sample_keep_set(cascade: Cascade, retention: float, rng_seed: int) -> frozenset[int]:
    """Uniform subset of retweeters of size round(retention * count).

    Retention levels are nested for a fixed seed: one random permutation
    ranks the retweeters and each level keeps a prefix, so keep(r1) is a
    subset of keep(r2) whenever r1 <= r2.
    """
    if not 0.0 <= retention <= 1.0:
        raise CascadeError("retention must be in [0, 1]")
    users = list(cascade.retweeters)
    rng = np.random.default_rng(derive_seed(rng_seed, "keep", cascade.seed.tweet_id))
    perm = rng.permutation(len(users))
    size = int(np.floor(retention * len(users) + 0.5))
    return frozenset(users[i] for i in perm[:size])


# -- simulation ------------------------------------------------------------


def simulate_cascades(
    graph: SocialGraph,
    seeds: Sequence[SeedTweet],
    rt_rates: Mapping[TweetCategory, float],
    period: tuple[date, date],
    rng_seed: int,
    *,
    corrective_blocks_misinfo: bool = False,
    seq_start: int | None = None,
    first_correction: np.ndarray | None = None,
) -> list[Cascade]:
    """Day-synchronous stochastic diffusion of all seed tweets at once.

    Each day, users who newly entered a tweet's visible set retweet it
    with the category's RT rate; their retweet lands on the next day and
    exposes their followers then.  A user decides at most once per tweet
    (first exposure only).  With `corrective_blocks_misinfo`, a user who
    was already exposed to any corrective tweet as of the start of the
    decision day never retweets misinformation.

    `first_correction` holds, per user, the index of the period day on
    which the user was first exposed to a corrective tweet (any value
    >= the period's length for never).  It seeds the run's own record, so
    a misinformation-only run given the first-correction days of a
    corrective run blocks exactly as the run holding both would; the
    caller's array is not modified.

    Retweet decisions use one fixed uniform draw per (tweet, user) keyed
    off the seed, so runs with the same seed are coupled across rates:
    raising a rate only ever adds events.
    """
    for cat, r in rt_rates.items():
        if not 0.0 <= r <= 1.0:
            raise CascadeError(f"rt_rate for {cat.value} must be in [0, 1]")
    start, end = period
    if end < start:
        raise CascadeError("empty simulation period")
    for s in seeds:
        if not 0 <= s.author < graph.n_users:
            raise CascadeError(f"seed author {s.author} not in graph")
    n = graph.n_users
    seeds = sorted(seeds, key=lambda s: (s.day, s.seq))
    seq = (max((s.seq for s in seeds), default=0) + 1) if seq_start is None else seq_start

    # per-tweet columns, indexed like `seeds`
    author = np.array([s.author for s in seeds], dtype=np.int64)
    seed_day = np.array([(s.day - start).days for s in seeds], dtype=np.int64)
    rate = np.array([rt_rates.get(s.category, 0.0) for s in seeds], dtype=np.float64)
    # masking out the keys of rate-0 tweets costs more than it saves when
    # there are none
    some_rate_zero = not rate.all()
    corrective = np.array([s.category is TweetCategory.CORRECTIVE for s in seeds], dtype=bool)
    blockable = np.array(
        [corrective_blocks_misinfo and s.category is TweetCategory.MISINFORMATION for s in seeds],
        dtype=bool,
    )
    skey = np.array([derive_seed(rng_seed, "rt", s.tweet_id) for s in seeds], dtype=np.uint64)

    # (tweet, user) state lives under the key tweet * n + user
    exposed = np.zeros(len(seeds) * n, dtype=bool)
    n_days = (end - start).days + 1
    if first_correction is None:
        first_corr = np.full(n, n_days, dtype=np.int64)
    else:
        first_corr = np.array(first_correction, dtype=np.int64)
        if first_corr.shape != (n,):
            raise CascadeError("first_correction must hold one day per user")
    pending = np.zeros(0, dtype=np.int64)  # keys of retweets landing today
    events: list[list[RetweetEvent]] = [[] for _ in seeds]
    for d in range(n_days):
        seeded = np.flatnonzero(seed_day == d)
        if len(seeded) == 0 and len(pending) == 0:
            continue
        # sorted keys: seq follows (day, tweet, user) order
        day = start + timedelta(days=d)
        for t, u in zip(*(a.tolist() for a in np.divmod(pending, n))):
            events[t].append(RetweetEvent(u, seeds[t].tweet_id, day, seq))
            seq += 1
        # every actor (author or retweeter) exposes itself and its followers
        actors = np.concatenate([seeded * n + author[seeded], pending])
        keys = _sorted_unique(_audience(graph, actors))
        new = keys[~exposed[keys]]
        exposed[new] = True
        tweet, user = np.divmod(new, n)
        # the newly exposed decide once, on their first exposure
        hit = user != author[tweet]
        if some_rate_zero:  # a tweet at rate 0 takes no draw
            hit &= rate[tweet] > 0
            live = np.flatnonzero(hit)
            hit[live] = uniform_for_users(skey[tweet[live]], user[live]) < rate[tweet[live]]
        else:
            hit &= uniform_for_users(skey[tweet], user) < rate[tweet]
        # corrective exposure counts from the next day on
        hit &= ~(blockable[tweet] & (first_corr[user] < d))
        corrected = user[corrective[tweet]]
        first_corr[corrected] = np.minimum(first_corr[corrected], d)
        pending = new[hit]
    return [Cascade(s, tuple(evs)) for s, evs in zip(seeds, events)]


def _audience(graph: SocialGraph, actors: np.ndarray) -> np.ndarray:
    """For actor keys `g * n + u` (at least one), the actor keys followed by
    `g * n + v` for each follower v of u: one segment-gather over the
    follower CSR, unsorted and with repeats."""
    n = graph.n_users
    group, user = np.divmod(actors, n)
    followers = graph._followers
    first = followers.indptr[user]
    counts = followers.indptr[user + 1] - first
    ends = np.cumsum(counts)
    reached = followers.indices[np.repeat(first - (ends - counts), counts) + np.arange(ends[-1])]
    return np.concatenate([actors, np.repeat(group * n, counts) + reached])


# -- CSV I/O ---------------------------------------------------------------


def load_seed_tweets(stream: TextIO | Iterable[str], graph: SocialGraph) -> list[SeedTweet]:
    """Parse the seed-tweet CSV (`tweet_id,author_id,category,day`).

    Seed seq numbers are not part of the file format; they are assigned
    from day order (ties broken by tweet id) with gaps left for events.
    A tweet id used on two rows is an error.
    """
    parsed = []
    first_line: dict[str, int] = {}
    for line_no, row in read_table(stream, [TWEET_HEADER], CascadeError):
        if (prev := first_line.setdefault(row[0], line_no)) != line_no:
            raise CascadeError(f"line {line_no}: tweet id {row[0]!r} repeats line {prev}")
        try:
            d, author = date.fromisoformat(row[3]), graph.dense_id(row[1])
            parsed.append((d, row[0], author, TweetCategory.from_label(row[2])))
        except ValueError as e:
            raise CascadeError(f"line {line_no}: {e}") from None
    parsed.sort(key=lambda t: (t[0], t[1]))
    return [
        SeedTweet(tweet_id=tid, author=a, category=cat, day=d, seq=-(len(parsed) - i))
        for i, (d, tid, a, cat) in enumerate(parsed)
    ]


def load_retweets(
    stream: TextIO | Iterable[str],
    graph: SocialGraph,
    seeds: Sequence[SeedTweet],
) -> list[Cascade]:
    """Parse the retweet CSV (`user_id,tweet_id,day,seq`) into cascades.

    Every seed yields a cascade (possibly with zero events); retweets of
    unknown tweet ids are an error, and so are a retweet dated before its
    tweet and a second retweet of one tweet by one user.  `seq` is a
    global order: a value used twice, equal to a seed tweet's seq, or below
    the seq of the retweeted tweet is an error.
    """
    by_tweet = {s.tweet_id: s for s in seeds}
    seed_seqs = {s.seq: s.tweet_id for s in seeds}
    first_line: dict[int, int] = {}
    retweet_line: dict[tuple[str, int], int] = {}
    buckets: dict[str, list[RetweetEvent]] = {s.tweet_id: [] for s in seeds}
    for line_no, row in read_table(stream, [RETWEET_HEADER], CascadeError):
        tid = row[1]
        if (tweet := by_tweet.get(tid)) is None:
            raise CascadeError(f"line {line_no}: retweet of unknown tweet {tid!r}")
        try:
            user, d, seq = graph.dense_id(row[0]), date.fromisoformat(row[2]), int(row[3])
        except ValueError as e:
            raise CascadeError(f"line {line_no}: {e}") from None
        if d < tweet.day:
            raise CascadeError(
                f"line {line_no}: user {row[0]!r} retweets tweet {tid!r} on {d}, "
                f"before its day {tweet.day}"
            )
        if (prev := retweet_line.setdefault((tid, user), line_no)) != line_no:
            raise CascadeError(
                f"line {line_no}: user {row[0]!r} retweets tweet {tid!r} again (line {prev})"
            )
        if seq in seed_seqs:
            raise CascadeError(f"line {line_no}: seq {seq} is the seq of tweet {seed_seqs[seq]!r}")
        if seq < tweet.seq:
            raise CascadeError(
                f"line {line_no}: seq {seq} precedes the seq {tweet.seq} of tweet {tid!r}"
            )
        if (prev := first_line.setdefault(seq, line_no)) != line_no:
            raise CascadeError(f"line {line_no}: seq {seq} repeats line {prev}")
        buckets[tid].append(RetweetEvent(user, tid, d, seq))
    out = []
    for s in seeds:
        evs = sorted(buckets[s.tweet_id], key=lambda e: e.seq)
        out.append(Cascade(s, tuple(evs)))
    return out


def save_cascades(
    cascades: Sequence[Cascade],
    tweets_path: str | os.PathLike,
    retweets_path: str | os.PathLike,
    graph: SocialGraph,
) -> None:
    ids = graph.external_ids
    seeds = (c.seed for c in cascades)
    tweets = ((s.tweet_id, ids[s.author], s.category.value, s.day) for s in seeds)
    write_table(tweets_path, TWEET_HEADER, tweets)
    events = (ev for c in cascades for ev in c.events)
    retweets = ((ids[ev.user], ev.tweet_id, ev.day, ev.seq) for ev in events)
    write_table(retweets_path, RETWEET_HEADER, retweets)
