"""Retweet cascades: visibility, counterfactual pruning, and simulation.

A cascade is a seed tweet plus its retweet events in global sequence
order.  Visibility is defined purely by the follower graph and event
order: once the author or any retweeter has acted, all of their followers
(and the actor) can see the tweet from that event's sequence number on.
A cascade's events are one read-only `EVENT` array, a row per retweet.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from ._rng import derive_seed, uniform_for_users
from ._table import read_table, write_table
from .graph import SocialGraph, _Csr, _sorted_unique

log = logging.getLogger("infodemic.cascade")

TWEET_HEADER = ["tweet_id", "author_id", "category", "day"]
RETWEET_HEADER = ["user_id", "tweet_id", "day", "seq"]

# one retweet: the retweeting user, its day as `date.toordinal()` and its
# global sequence number
EVENT = np.dtype([("user", np.int64), ("day", np.int64), ("seq", np.int64)])


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


@dataclass(frozen=True, eq=False)
class Cascade:
    """A seed tweet and its retweets, `events`: an `EVENT` array in seq
    order, built from any sequence of (user, day ordinal, seq) rows."""

    seed: SeedTweet
    events: np.ndarray

    def __post_init__(self):
        ev = self.events
        ev = np.array(ev if isinstance(ev, np.ndarray) else list(ev), dtype=EVENT)
        ev.setflags(write=False)
        object.__setattr__(self, "events", ev)
        if ev.ndim != 1:
            raise CascadeError("events must be one row per retweet")
        if not len(ev):
            return
        seq, users = ev["seq"], np.sort(ev["user"])
        if seq[0] <= self.seed.seq or (seq[1:] <= seq[:-1]).any():
            raise CascadeError("events must be strictly increasing in seq")
        if (twice := users[1:][users[1:] == users[:-1]]).size:
            raise CascadeError(f"user {twice[0]} retweets more than once")
        if ev["day"].min() < self.seed.day.toordinal():
            raise CascadeError("event day precedes seed day")

    def __eq__(self, other):
        if not isinstance(other, Cascade):
            return NotImplemented
        return self.seed == other.seed and np.array_equal(self.events, other.events)

    @property
    def retweeters(self) -> np.ndarray:
        return self.events["user"]


def _events(cascades: Sequence[Cascade]) -> np.ndarray:
    """The events of `cascades`, one cascade after another."""
    # joined as plain int64 words: numpy joins structured arrays far slower
    words = [c.events.view(np.int64) for c in cascades]
    return np.concatenate([np.zeros(0, np.int64), *words]).view(EVENT)


def _actors(cascades: Sequence[Cascade]) -> np.ndarray:
    """`EVENT` rows of everyone who posts in `cascades`: each seed author
    on its tweet's day and seq, then each cascade's retweets in turn."""
    seeds = [(c.seed.author, c.seed.day.toordinal(), c.seed.seq) for c in cascades]
    return np.concatenate([np.array(seeds, dtype=EVENT), _events(cascades)])


# -- visibility ------------------------------------------------------------


def prune_cascade(graph: SocialGraph, cascade: Cascade, keep: Iterable[int]) -> Cascade:
    """Counterfactually remove retweeters, then close under visibility.

    Every surviving event's user must be visible at the event's seq given
    only the surviving upstream events.  So the survivors are the kept
    events that a chain of kept events, each exposing the next at a later
    seq, links to the seed: the fixpoint of iterated removal in any order.
    """
    keep = np.asarray(keep if isinstance(keep, np.ndarray) else list(keep), dtype=np.int64)
    return _prune(graph, [cascade], [keep])[0]


def _prune(
    graph: SocialGraph, cascades: Sequence[Cascade], keeps: Sequence[np.ndarray]
) -> list[Cascade]:
    """`prune_cascade` of each cascade with its kept retweeters, over all
    the cascades at once: one round per link of the longest kept chain."""
    n, g = graph.n_users, len(cascades)
    if not g:
        return []
    ev = _events(cascades)
    owner = np.repeat(np.arange(g), [len(c.events) for c in cascades])
    # each event's (cascade, user) key; a user retweets a tweet at most once
    key = owner * n + ev["user"]
    wanted = np.concatenate([i * n + k for i, k in enumerate(keeps)])
    if not (found := np.isin(wanted, key)).all():
        extras = np.unique(wanted[~found] % n)
        raise CascadeError(f"keep contains non-retweeters: {extras[:5].tolist()}")
    rows = np.flatnonzero(np.isin(key, wanted))  # the kept retweeters' events
    # actor i < g is cascade i's seed author, actor g + j the user of rows[j]
    authors = [c.seed.author for c in cascades]
    actor = np.concatenate([np.arange(g) * n + authors, key[rows]])
    # an actor exposes the kept row j when the row's user is the actor or
    # follows it: look each row's user and followees up among the actors
    row_keys = np.arange(len(rows)) * n + ev["user"][rows]
    dst, followed = np.divmod(_with_neighbors(graph._follows, row_keys, n), n)
    followed += owner[rows][dst] * n
    # stable, so a seed author who also retweets is found as the seed
    by_actor = np.argsort(actor, kind="stable")
    src = by_actor[np.minimum(np.searchsorted(actor[by_actor], followed), len(actor) - 1)]
    # a cascade's rows are in seq order after its seed, so an actor exposes
    # only the rows after its own
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
    return [
        c if b - a == len(c.events) else replace(c, events=ev[rows[a:b]])
        for c, a, b in zip(cascades, bounds[:-1], bounds[1:])
    ]


def sample_keep_set(cascade: Cascade, retention: float, rng_seed: int) -> np.ndarray:
    """Uniform subset of retweeters of size round(retention * count).

    Retention levels are nested for a fixed seed: one random permutation
    ranks the retweeters and each level keeps a prefix, so keep(r1) is a
    subset of keep(r2) whenever r1 <= r2.
    """
    if not 0.0 <= retention <= 1.0:
        raise CascadeError("retention must be in [0, 1]")
    users = cascade.retweeters
    rng = np.random.default_rng(derive_seed(rng_seed, "keep", cascade.seed.tweet_id))
    perm = rng.permutation(len(users))
    size = int(np.floor(retention * len(users) + 0.5))
    return users[perm[:size]]


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
    # each day's retweet keys, sorted, so seq follows (day, tweet, user)
    # order; the empty first entry keeps the concatenation defined
    landed, landed_day = [pending], [0]
    for d in range(n_days):
        seeded = np.flatnonzero(seed_day == d)
        if len(seeded) == 0 and len(pending) == 0:
            continue
        landed.append(pending)
        landed_day.append(start.toordinal() + d)
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
    tweet, user = np.divmod(np.concatenate(landed), n)
    run = np.empty(len(tweet), dtype=EVENT)
    run["user"], run["seq"] = user, seq + np.arange(len(tweet))
    run["day"] = np.repeat(landed_day, [len(k) for k in landed])
    return _split(seeds, tweet, run)


def _split(seeds: Sequence[SeedTweet], tweet: np.ndarray, run: np.ndarray) -> list[Cascade]:
    """One cascade per seed, holding the rows of the `EVENT` array `run`
    whose `tweet` is the seed's index, in their order in `run`."""
    order = np.argsort(tweet, kind="stable")
    bounds = np.searchsorted(tweet[order], np.arange(len(seeds) + 1))
    run = run[order]
    return [Cascade(s, run[a:b]) for s, a, b in zip(seeds, bounds[:-1], bounds[1:])]


def _audience(graph: SocialGraph, actors: np.ndarray) -> np.ndarray:
    """For actor keys `g * n + u`, the actor keys followed by
    `g * n + v` for each follower v of u: one segment-gather over the
    follower CSR, unsorted and with repeats."""
    return _with_neighbors(graph._followers, actors, graph.n_users)


def _with_neighbors(csr: _Csr, keys: np.ndarray, n: int) -> np.ndarray:
    """`keys` followed by `g * n + v` for each key `g * n + u` and each
    neighbor v of u in `csr`."""
    group, user = np.divmod(keys, n)
    first = csr.indptr[user]
    counts = csr.indptr[user + 1] - first
    ends = np.cumsum(counts)
    reached = csr.indices[np.repeat(first - (ends - counts), counts) + np.arange(counts.sum())]
    return np.concatenate([keys, np.repeat(group * n, counts) + reached])


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
    global order that agrees with the days: a value used twice, equal to a
    seed tweet's seq, below the seq of the retweeted tweet, or above the
    seq of a retweet dated later is an error.
    """
    by_tweet = {s.tweet_id: i for i, s in enumerate(seeds)}
    seed_seqs = {s.seq: s.tweet_id for s in seeds}
    first_line: dict[int, int] = {}
    retweet_line: dict[tuple[str, int], int] = {}
    rows: list[tuple[int, int, int, int, int]] = []  # tweet, user, day, seq, line
    for line_no, row in read_table(stream, [RETWEET_HEADER], CascadeError):
        tid = row[1]
        if (t := by_tweet.get(tid)) is None:
            raise CascadeError(f"line {line_no}: retweet of unknown tweet {tid!r}")
        try:
            user, d, seq = graph.dense_id(row[0]), date.fromisoformat(row[2]), int(row[3])
        except ValueError as e:
            raise CascadeError(f"line {line_no}: {e}") from None
        if d < seeds[t].day:
            raise CascadeError(
                f"line {line_no}: user {row[0]!r} retweets tweet {tid!r} on {d}, "
                f"before its day {seeds[t].day}"
            )
        if (prev := retweet_line.setdefault((tid, user), line_no)) != line_no:
            raise CascadeError(
                f"line {line_no}: user {row[0]!r} retweets tweet {tid!r} again (line {prev})"
            )
        if seq in seed_seqs:
            raise CascadeError(f"line {line_no}: seq {seq} is the seq of tweet {seed_seqs[seq]!r}")
        if seq < seeds[t].seq:
            raise CascadeError(
                f"line {line_no}: seq {seq} precedes the seq {seeds[t].seq} of tweet {tid!r}"
            )
        if not -(2**63) <= seq < 2**63:
            raise CascadeError(f"line {line_no}: seq {seq} does not fit in 64 bits")
        if (prev := first_line.setdefault(seq, line_no)) != line_no:
            raise CascadeError(f"line {line_no}: seq {seq} repeats line {prev}")
        rows.append((t, user, d.toordinal(), seq, line_no))
    table = np.array(rows, dtype=np.int64).reshape(-1, 5)
    tweet, user, day, seq, line = table[np.argsort(table[:, 3])].T
    if len(back := np.flatnonzero(day[1:] < day[:-1])):
        i, j = back[0], back[0] + 1  # seq[i] < seq[j], but day[i] > day[j]
        raise CascadeError(
            f"line {line[j]}: seq {seq[j]} on {date.fromordinal(day[j])} is above "
            f"seq {seq[i]} of line {line[i]}, a retweet on the later day {date.fromordinal(day[i])}"
        )
    run = np.empty(len(table), dtype=EVENT)
    run["user"], run["day"], run["seq"] = user, day, seq
    return _split(seeds, tweet, run)


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
    events = _events(cascades)
    tweet_ids = np.array([c.seed.tweet_id for c in cascades], dtype=object)
    tweet_ids = np.repeat(tweet_ids, [len(c.events) for c in cascades])
    user, day, seq = (events[f].tolist() for f in EVENT.names)
    retweets = zip(map(ids.__getitem__, user), tweet_ids, map(date.fromordinal, day), seq)
    write_table(retweets_path, RETWEET_HEADER, retweets)
