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
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import reduce
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from ._rng import derive_seed, uniform_for_users
from ._table import at_line, parse_day, parse_number, read_table, write_table
from .graph import SocialGraph, _Csr, _row_gather, _run_starts

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
        _check_events([self.seed], np.array([0, len(ev)]), ev)

    @classmethod
    def _checked(cls, seed: SeedTweet, events: np.ndarray) -> "Cascade":
        """A cascade of read-only `EVENT` rows that `_check_events` passed."""
        c = object.__new__(cls)
        object.__setattr__(c, "seed", seed)
        object.__setattr__(c, "events", events)
        return c

    def __eq__(self, other):
        if not isinstance(other, Cascade):
            return NotImplemented
        return self.seed == other.seed and np.array_equal(self.events, other.events)

    @property
    def retweeters(self) -> np.ndarray:
        return self.events["user"]


def _check_events(seeds: Sequence[SeedTweet], bounds: np.ndarray, events: np.ndarray) -> None:
    """Raise the `CascadeError` of the first of `seeds` whose events,
    `events[bounds[k]:bounds[k + 1]]` for seed k, break a cascade's rules:
    seq strictly rising above the seed's, no user retweeting twice and no
    day before the seed's, checked in that order."""
    if not len(events):
        return
    counts = np.diff(bounds)
    owner = np.repeat(np.arange(len(seeds), dtype=np.min_scalar_type(len(seeds))), counts)
    seq, user = events["seq"], events["user"]
    # each event's seq must be above the one before it, its seed's for a first event
    rising = np.ones(len(seq), dtype=bool)
    rising[1:] = seq[1:] > seq[:-1]
    firsts = np.flatnonzero(counts)
    rising[bounds[firsts]] = seq[bounds[firsts]] > [seeds[k].seq for k in firsts]
    days = np.array([s.day.toordinal() for s in seeds], dtype=np.int64)
    late, early = owner[~rising], owner[events["day"] < days[owner]]
    # a stable sort by user keeps each user's events in seed order, so a
    # user's two events in one cascade are neighbors
    by_user = np.argsort(user, kind="stable")
    user, mine = user[by_user], owner[by_user]
    twice = np.flatnonzero((user[1:] == user[:-1]) & (mine[1:] == mine[:-1])) + 1
    failing = [late, mine[twice], early]
    first = [f.min() if len(f) else len(seeds) for f in failing]
    if (k := min(first)) == len(seeds):
        return
    if first[0] == k:
        raise CascadeError("events must be strictly increasing in seq")
    if first[1] == k:  # the lowest user that seed k's events repeat
        raise CascadeError(f"user {user[twice[mine[twice] == k][0]]} retweets more than once")
    raise CascadeError("event day precedes seed day")


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


def _prune(graph: SocialGraph, cascades: Sequence[Cascade], want: np.ndarray) -> np.ndarray:
    """Counterfactually remove retweets, then close under visibility, in
    all cascades and lanes at once.  `want` is an (events, lanes) bool
    array over the events of `cascades`, one cascade after another: lane
    l offers the events set in column l.  Returns the same shape, set
    where an offered event survives.

    Every surviving event's user must be visible at the event's seq given
    only the surviving upstream events.  So the survivors are the offered
    events that a chain of surviving events, each exposing the next at a
    later seq, links to the seed: the fixpoint of iterated removal in any
    order.  The exposing edges do not depend on the lane, so every lane
    shares one edge list; one round per link of the longest kept chain.
    """
    n, g = graph.n_users, len(cascades)
    ev = _events(cascades)
    if want.ndim != 2 or len(want) != len(ev):
        raise CascadeError(f"want must have one row per event ({len(ev)}), got shape {want.shape}")
    owner = np.repeat(np.arange(g), [len(c.events) for c in cascades])
    # actor i < g is cascade i's seed author, actor g + j the user of event j;
    # each is keyed (cascade, user), and a user retweets a tweet at most once
    authors = [c.seed.author for c in cascades]
    actor = np.concatenate([np.arange(g) * n + authors, owner * n + ev["user"]])
    # an actor exposes event j when its user is the actor or follows it:
    # look each event's user and followees up among the actors
    row_keys = np.arange(len(ev)) * n + ev["user"]
    dst, followed = np.divmod(_with_neighbors(graph._follows, row_keys, n), n)
    followed += owner[dst] * n
    # stable, so a seed author who also retweets is found as the seed
    by_actor = np.argsort(actor, kind="stable")
    src = by_actor[np.minimum(np.searchsorted(actor[by_actor], followed), len(actor) - 1)]
    # a cascade's events are in seq order after its seed, so an actor
    # exposes only the events after its own
    dst += g
    edge = (actor[src] == followed) & (src < dst)
    if not edge.any():
        return np.zeros_like(want)
    # edges grouped by the event they expose, one group per exposed event
    order = np.argsort(dst[edge], kind="stable")
    src, dst = src[edge][order], dst[edge][order]
    heads = np.flatnonzero(np.diff(dst, prepend=-1))
    exposed = dst[heads]
    offered = want[exposed - g]
    kept = np.zeros((len(actor), want.shape[1]), dtype=bool)
    kept[:g] = True
    while True:
        reached = np.logical_or.reduceat(kept[src], heads, axis=0) & offered
        if not (reached & ~kept[exposed]).any():
            return kept[g:]
        kept[exposed] |= reached


def _keep_size(retention, count):
    """How many of `count` retweeters a `retention` level keeps:
    round(retention * count), halves up; broadcasts over arrays."""
    return np.floor(np.multiply(retention, count) + 0.5).astype(np.int64)


def sample_keep_set(cascade: Cascade, retention: float, rng_seed: int) -> np.ndarray:
    """Uniform subset of retweeters of size round(retention * count).

    Retention levels are nested for a fixed seed: one random permutation
    ranks the retweeters and each level keeps a prefix, so keep(r1) is a
    subset of keep(r2) whenever r1 <= r2.  At full retention the result
    is every retweeter in that rank order.
    """
    if not 0.0 <= retention <= 1.0:
        raise CascadeError("retention must be in [0, 1]")
    users = cascade.retweeters
    size = int(_keep_size(retention, len(users)))
    if len(users) < 2:  # one order only: skip seeding a generator
        return users[:size].copy()
    rng = np.random.default_rng(derive_seed(rng_seed, "keep", cascade.seed.tweet_id))
    return users[rng.permutation(len(users))[:size]]


# -- simulation ------------------------------------------------------------

# the most rate lanes one `_spread` run carries: one bit each of a uint64 mask
LANES = 64
# (mask byte, lane) -> 1 where the byte holds the lane
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(np.uint8)


class _Run(NamedTuple):
    """A `_spread` run of `width` lanes.  Its posts, laid out as `_actors`
    lays out a cascade's: each seed in the run's seed order, then the
    retweets in (day, tweet, user) order.  Per post, its day ordinal,
    tweet index and user, and `lanes`, the mask of the lanes it happens
    in; a seed is in every lane.  `_lane_runs` fills in `reach` and
    `reach_lanes`, the `_reach` of the run's posts."""

    day: np.ndarray
    tweet: np.ndarray
    user: np.ndarray
    lanes: np.ndarray
    width: int
    reach: np.ndarray | None = None
    reach_lanes: np.ndarray | None = None


def _check_run(graph: SocialGraph, seeds: Iterable[SeedTweet], period: tuple[date, date]) -> None:
    """Raise `CascadeError` unless the seeds can spread over the period."""
    start, end = period
    if end < start:
        raise CascadeError("empty simulation period")
    for s in seeds:
        if not 0 <= s.author < graph.n_users:
            raise CascadeError(f"seed author {s.author} not in graph")


def simulate_cascades(
    graph: SocialGraph,
    seeds: Sequence[SeedTweet],
    rt_rates: Mapping[TweetCategory, float],
    period: tuple[date, date],
    rng_seed: int,
    *,
    corrective_blocks_misinfo: bool = False,
) -> list[Cascade]:
    """Day-synchronous stochastic diffusion of all seed tweets at once.

    Each day, users who newly entered a tweet's visible set retweet it
    with the category's RT rate; their retweet lands on the next day and
    exposes their followers then.  A user decides at most once per tweet
    (first exposure only).  With `corrective_blocks_misinfo`, a user who
    was already exposed to any corrective tweet as of the start of the
    decision day never retweets misinformation.

    Retweet decisions use one fixed uniform draw per (tweet, user) keyed
    off the seed, so runs with the same seed are coupled across rates:
    raising a rate only ever adds events.  Each category spreads as one
    one-lane `_spread` run, the corrective tweets first, whose reach
    gates the misinformation run as `sweep` gates it; seq numbers follow
    (day, tweet, user) order from one past the highest seed seq.
    """
    for cat, r in rt_rates.items():
        if not 0.0 <= r <= 1.0:
            raise CascadeError(f"rt_rate for {cat.value} must be in [0, 1]")
    _check_run(graph, seeds, period)
    seeds = sorted(seeds, key=lambda s: (s.day, s.seq))
    gates, rows = {}, []
    for cat in (TweetCategory.CORRECTIVE, TweetCategory.SOLDOUT, TweetCategory.MISINFORMATION):
        index = np.array([i for i, s in enumerate(seeds) if s.category is cat], dtype=np.int64)
        mine = [seeds[i] for i in index]
        run = _spread(graph, mine, [rt_rates.get(cat, 0.0)], period, rng_seed, gates.get(cat, ()))
        if corrective_blocks_misinfo and cat is TweetCategory.CORRECTIVE:
            gates[TweetCategory.MISINFORMATION] = [_reach(graph, run.user, run.day, run.lanes, period)]
        rows.append((run.day[len(mine) :], index[run.tweet[len(mine) :]], run.user[len(mine) :]))
    day, tweet, user = (np.concatenate(column) for column in zip(*rows))
    order = np.lexsort((user, tweet, day))
    events = np.empty(len(order), dtype=EVENT)
    events["user"], events["day"] = user[order], day[order]
    events["seq"] = np.arange(len(order)) + max((s.seq for s in seeds), default=0) + 1
    return _split(seeds, tweet[order], events)


def _spread(
    graph: SocialGraph,
    seeds: Sequence[SeedTweet],
    rates: Sequence[float],
    period: tuple[date, date],
    rng_seed: int,
    corrections: Sequence[tuple[np.ndarray, np.ndarray]] = (),
) -> _Run:
    """`simulate_cascades`' diffusion of `seeds` in up to `LANES` rate
    lanes at once: lane l runs every seed at the rate `rates[l]`.  Each of
    `corrections` is a pair of distinct sorted `day * n_users + user`
    keys, the period days on which corrective posts reach users, and per
    key the mask of the lanes it gates: from the next day on, a gated
    user retweets none of `seeds` in those lanes.  The run's rows are the
    seeds' posts, in `seeds`' order and in every lane, then the retweets.

    Every lane uses each (tweet, user) key's one draw, so a key's state is
    a mask of lanes, of the narrowest unsigned dtype with a bit per lane.
    Each day the followers of the day's actors are drawn, repeats and
    all; only the keys that draw below the top rate and are not the
    tweet's author are made distinct, each with the union of its actors'
    lanes.  Such a key retweets in the lanes that reach it, whose rate is
    above its draw, that do not gate its user, and in which it has not
    retweeted yet.  A key so decides again at every exposure, yet each
    lane gets exactly the run at its own rate, where a key decides once,
    on its first exposure: its draw is fixed and a user's gates only gain
    lanes, so a key that did not retweet in a lane then never can.  The
    work so grows with every exposure whose draw is below the top rate.
    The keys that have retweeted, with their lanes, are one sorted table
    that grows with the retweets, not with tweets x users: each day one
    search of the day's distinct keys finds the lanes each has retweeted
    in, and the day's retweets add their lanes to keys already there and
    go in order into the table otherwise.
    A draw's lanes come from one threshold table per run: `above[j]`
    holds the lanes whose rate is above `floors[j]`, -1 and then the
    rates in order, and a draw takes j, the count of rates at or below it.
    """
    n, t = graph.n_users, len(seeds)
    start, end = period
    n_days = (end - start).days + 1
    lanes = len(rates)
    dtype = np.min_scalar_type((1 << lanes) - 1)
    # per-tweet columns, indexed like `seeds`
    author = np.array([s.author for s in seeds], dtype=np.int64)
    seed_day = np.array([(s.day - start).days for s in seeds], dtype=np.int64)
    skey = np.array([derive_seed(rng_seed, "rt", s.tweet_id) for s in seeds], dtype=np.uint64)
    # a draw at or above the top rate hits in no lane; draws are in [0, 1),
    # so a run at rate 0 in every lane never hits
    top = max(rates)
    floors = np.array([-1.0, *sorted(rates)])
    above = _lane_mask((floors < rate for rate in rates), dtype)

    # the (tweet, user) keys tweet * n + user that have retweeted, sorted,
    # and beside each the lanes in which it has; it ends in the key t * n,
    # above every real key, so a lookup never runs past its end
    done, done_lanes = np.array([t * n], dtype=np.int64), np.zeros(1, dtype)
    # per user, the lanes that gate it as of the current day
    corrected = np.zeros(n, dtype=dtype)
    # keys and lanes of retweets landing today, sorted, so seq follows
    # (day, tweet, user) order
    pending, pending_lanes = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype)
    landed, landed_lanes = [np.arange(t) * n + author], [np.full(t, (1 << lanes) - 1, dtype)]
    landed_day = [seed_day + start.toordinal()]
    for d in range(n_days):
        # the corrective exposures of the day before; a day's keys hold each user once
        for keys, gates in corrections:
            lo, hi = np.searchsorted(keys, [(d - 1) * n, d * n])
            corrected[keys[lo:hi] - (d - 1) * n] |= gates[lo:hi]
        seeded = np.flatnonzero(seed_day == d)
        if len(seeded) == 0 and len(pending) == 0:
            continue
        landed.append(pending)
        landed_lanes.append(pending_lanes)
        landed_day.append(np.full(len(pending), start.toordinal() + d))
        # every actor (author or retweeter) exposes its followers in its
        # lanes; an actor's own key cannot hit: an author's is skipped, a
        # retweeter's has retweeted in all of its lanes
        tweet, user = np.divmod(np.concatenate([landed[0][seeded], pending]), n)
        actor_lanes = np.concatenate([landed_lanes[0][seeded], pending_lanes])
        user, counts = _neighbors(graph._followers, user)
        tweet = np.repeat(tweet, counts)
        draw = uniform_for_users(skey[tweet], user)
        i = np.flatnonzero((draw < top) & (user != author[tweet]))
        # only these are made distinct, each in the union of its actors' lanes
        keys = tweet[i] * n + user[i]
        order = np.argsort(keys)
        keys, i = keys[order], i[order]
        heads = np.flatnonzero(_run_starts(keys))
        key_lanes = np.repeat(actor_lanes, counts)[i]
        key_lanes = np.bitwise_or.reduceat(key_lanes, heads)
        keys, i = keys[heads], i[heads]
        rate_lanes = above[np.searchsorted(floors[1:], draw[i], side="right")]
        # each key's place in the table, and the lanes it has retweeted in
        at = np.searchsorted(done, keys)
        seen = done[at] == keys
        hit = key_lanes & ~(done_lanes[at] * seen) & ~corrected[user[i]] & rate_lanes
        retweets = np.flatnonzero(hit)
        pending, pending_lanes = keys[retweets], hit[retweets]
        if len(retweets):  # a key in the table gains lanes, a new one goes in its place
            at, seen = at[retweets], seen[retweets]
            done_lanes[at[seen]] |= pending_lanes[seen]
            new = np.flatnonzero(~seen)
            # the new keys' rows in the grown table; the old keys fill the rest in order
            rows = at[new] + np.arange(len(new))
            old = np.ones(len(done) + len(new), dtype=bool)
            old[rows] = False
            done = _grown(done, old, rows, pending[new])
            done_lanes = _grown(done_lanes, old, rows, pending_lanes[new])
    tweet, user = np.divmod(np.concatenate(landed), n)
    return _Run(np.concatenate(landed_day), tweet, user, np.concatenate(landed_lanes), lanes)


def _grown(
    table: np.ndarray, old: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """`table` in the rows set in the bool mask `old`, `values` in `rows`."""
    grown = np.empty(len(old), table.dtype)
    grown[old], grown[rows] = table, values
    return grown


def _reach(
    graph: SocialGraph, users: np.ndarray, days: np.ndarray, masks: np.ndarray,
    period: tuple[date, date],
) -> tuple[np.ndarray, np.ndarray]:
    """Who the posts of `users` on the day ordinals `days`, in the
    unsigned lane masks `masks`, reach on each period day: the
    `_lane_reach` of the posts dated inside the period and in some lane."""
    start, end = (d.toordinal() for d in period)
    inside = (days >= start) & (days <= end) & (masks > 0)
    keys = (days[inside] - start) * graph.n_users + users[inside]
    return _lane_reach(graph, keys, masks[inside])


def _lane_runs(
    graph: SocialGraph,
    seeds: Sequence[SeedTweet],
    rates: Sequence[float],
    period: tuple[date, date],
    rng_seed: int,
    corrections: Sequence[tuple[np.ndarray, np.ndarray, Sequence[int]]] = (),
) -> Iterator[tuple[_Run, int]]:
    """`_spread` in one lane per rate of `rates`: runs of up to `LANES`
    lanes each, with the `_reach` of their rows, the seeds' posts and the
    retweets; one (run, lane) per rate.  Each of `corrections` is a
    corrective run's reach keys and lane masks, and per lane c of those
    masks, the mask of the rates that lane c gates.  A key gates the OR of
    its lanes' rate masks, looked up for each byte of its mask in a
    256-entry table of that byte's lanes."""
    for group in range(0, len(rates), LANES):
        columns = rates[group : group + LANES]
        low = (1 << len(columns)) - 1
        mine, dtype = [], np.min_scalar_type(low)
        for keys, masks, lane_map in corrections:  # each key's gates in this run's lanes
            gates = np.zeros(len(keys), dtype)
            for first in range(0, len(lane_map), 8):
                # per value of the mask byte, the OR of its lanes' gates
                gated = np.array([g >> group & low for g in lane_map[first : first + 8]], dtype)
                table = np.bitwise_or.reduce(_BYTE_BITS[:, : len(gated)] * gated, axis=1)
                gates |= table[masks >> masks.dtype.type(first) & masks.dtype.type(0xFF)]
            mine.append((keys, gates))
        run = _spread(graph, seeds, columns, period, rng_seed, mine)
        reach, reach_lanes = _reach(graph, run.user, run.day, run.lanes, period)
        run = run._replace(reach=reach, reach_lanes=reach_lanes)
        for lane in range(run.width):
            yield run, lane


def _lane_mask(lanes: Iterable[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """`dtype` masks with bit l set where the l-th bool array of `lanes` is."""
    return reduce(np.bitwise_or, (b.astype(dtype) << dtype.type(i) for i, b in enumerate(lanes)))


def _split(seeds: Sequence[SeedTweet], tweet: np.ndarray, run: np.ndarray) -> list[Cascade]:
    """One cascade per seed, holding the rows of the `EVENT` array `run`
    whose `tweet` is the seed's index, in their order in `run`: read-only
    views of one array, all checked at once, so a run that breaks a
    cascade's rules raises the error of its first such cascade."""
    order = np.argsort(tweet, kind="stable")
    bounds = np.searchsorted(tweet[order], np.arange(len(seeds) + 1))
    run = run[order]
    run.setflags(write=False)
    _check_events(seeds, bounds, run)
    return [Cascade._checked(s, run[a:b]) for s, a, b in zip(seeds, bounds[:-1], bounds[1:])]


def _lane_reach(
    graph: SocialGraph, keys: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For actor keys `g * n + u` posting in the unsigned lane masks
    `masks`, the sorted distinct keys `g * n + v` of v the actor and each
    of its followers, and the OR of the lanes that reach each."""
    group, user = np.divmod(keys, graph.n_users)
    reached, counts = _neighbors(graph._followers, user)
    if masks.dtype == np.uint8:
        # the lanes ride in the low byte, so one sort orders keys and lanes
        base = (group * graph.n_users) << 8 | masks
        packed = np.concatenate([keys << 8 | masks, np.repeat(base, counts) + (reached << 8)])
        packed.sort()
        keys, masks = packed >> 8, (packed & 0xFF).astype(np.uint8)
    else:
        keys = np.concatenate([keys, np.repeat(group * graph.n_users, counts) + reached])
        order = np.argsort(keys)
        keys, masks = keys[order], np.concatenate([masks, np.repeat(masks, counts)])[order]
    heads = np.flatnonzero(_run_starts(keys))
    return keys[heads], np.bitwise_or.reduceat(masks, heads)


def _with_neighbors(csr: _Csr, keys: np.ndarray, n: int) -> np.ndarray:
    """`keys` followed by `g * n + v` for each key `g * n + u` and each
    neighbor v of u in `csr`."""
    group, user = np.divmod(keys, n)
    reached, counts = _neighbors(csr, user)
    return np.concatenate([keys, np.repeat(group * n, counts) + reached])


def _neighbors(csr: _Csr, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbors in `csr` of each of `rows`, one row after another and
    widened to int64 for key arithmetic, and how many each row has: one
    segment-gather."""
    reached = csr.indices[_row_gather(csr.indptr, rows)].astype(np.int64)
    return reached, csr.indptr[rows + 1] - csr.indptr[rows]


# -- CSV I/O ---------------------------------------------------------------


def load_seed_tweets(stream: TextIO | Iterable[str], graph: SocialGraph) -> list[SeedTweet]:
    """Parse the seed-tweet CSV (`tweet_id,author_id,category,day`).

    Seed seq numbers are not part of the file format; they are assigned
    from day order (ties broken by tweet id) with gaps left for events.
    A tweet id used on two rows is an error.
    """
    parsed = []
    first_line: dict[str, int] = {}
    for line_no, row in read_table(stream, [TWEET_HEADER], at_line(CascadeError)):
        if (prev := first_line.setdefault(row[0], line_no)) != line_no:
            raise CascadeError(f"line {line_no}: tweet id {row[0]!r} repeats line {prev}")
        try:
            d, author = parse_day(row[3]), graph.dense_id(row[1])
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
    for line_no, row in read_table(stream, [RETWEET_HEADER], at_line(CascadeError)):
        tid = row[1]
        if (t := by_tweet.get(tid)) is None:
            raise CascadeError(f"line {line_no}: retweet of unknown tweet {tid!r}")
        try:
            user, d, seq = graph.dense_id(row[0]), parse_day(row[2]), parse_number(row[3], int)
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
