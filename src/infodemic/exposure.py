"""Daily possible-viewer counts split into the seven exposure classes.

For each day, every user is classified by the set of content categories
that became visible to them that day (through same-day seed posts or
retweets by accounts they follow).  The seven non-empty category
combinations partition the day's exposed users; users with no same-day
exposure are not counted.  Daily counts are summed over days with
repetition: the same user can contribute to a class on several days.
A user's categories on a day are held as one 3-bit code, and the whole
period is counted with one bincount over (day, code).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Iterable, Sequence, TextIO

import numpy as np

from ._table import at_line, read_table, write_table
from .cascade import Cascade, TweetCategory, _actors, _audience
from .graph import SocialGraph

MATRIX_HEADER = ["day", "x1", "x2", "x3", "x4", "x5", "x6", "x7"]

# class index (0-based) -> category combination, in the canonical order
CLASS_CATEGORIES: tuple[frozenset[TweetCategory], ...] = (
    frozenset({TweetCategory.CORRECTIVE}),
    frozenset({TweetCategory.MISINFORMATION}),
    frozenset({TweetCategory.SOLDOUT}),
    frozenset({TweetCategory.CORRECTIVE, TweetCategory.MISINFORMATION}),
    frozenset({TweetCategory.CORRECTIVE, TweetCategory.SOLDOUT}),
    frozenset({TweetCategory.MISINFORMATION, TweetCategory.SOLDOUT}),
    frozenset(TweetCategory),
)


class ExposureError(ValueError):
    pass


@dataclass(frozen=True)
class ExposureMatrix:
    """Contiguous per-day class counts, one row per day."""

    days: tuple[date, ...]
    counts: np.ndarray = field(repr=False)  # shape (len(days), 7), int64

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        if c.shape != (len(self.days), 7):
            raise ExposureError("counts shape must be (n_days, 7)")
        for a, b in zip(self.days, self.days[1:]):
            if (b - a).days != 1:  # `a + 1 day` overflows past date.max
                raise ExposureError("days must be contiguous and increasing")

    def to_csv(self, path: str | os.PathLike, header_comments: Sequence[str] = ()) -> None:
        rows = ((d, *row) for d, row in zip(self.days, self.counts.tolist()))
        write_table(path, MATRIX_HEADER, rows, header_comments)

    @classmethod
    def from_csv(cls, stream: TextIO | Iterable[str]) -> "ExposureMatrix":
        days: list[date] = []
        rows: list[list[int]] = []
        for line_no, row in read_table(stream, [MATRIX_HEADER], at_line(ExposureError)):
            try:
                days.append(date.fromisoformat(row[0]))
                rows.append([int(x) for x in row[1:]])
            except ValueError as e:
                raise ExposureError(f"line {line_no}: {e}") from None
            if min(rows[-1]) < 0:
                raise ExposureError(f"line {line_no}: negative class count {min(rows[-1])}")
            if len(days) > 1 and (days[-1] - days[-2]).days != 1:
                raise ExposureError(
                    f"line {line_no}: days must be contiguous and increasing "
                    f"({days[-1]} after {days[-2]})"
                )
        return cls(tuple(days), np.array(rows, dtype=np.int64).reshape(len(days), 7))


# bit of each category in a user's 3-bit category code C | M << 1 | S << 2
_CATEGORY_BITS = {
    TweetCategory.CORRECTIVE: 1,
    TweetCategory.MISINFORMATION: 2,
    TweetCategory.SOLDOUT: 4,
}
# class x1..x7 -> the category code its users hold
_CLASS_CODES = np.array([sum(_CATEGORY_BITS[c] for c in cats) for cats in CLASS_CATEGORIES])


def _reach(
    graph: SocialGraph,
    cascades: Sequence[Cascade],
    start: date,
    n_days: int,
    *,
    cumulative: bool = False,
    include_actors: bool = True,
) -> np.ndarray:
    """(n_days, n_users) bool: who the cascades reach on each period day.

    An actor (a seed author on the seed day, a retweeter on the retweet
    day) reaches its followers, and itself with `include_actors`.
    `cumulative` counts activity before the period on its first day and
    carries every day's reach forward.
    """
    acts = _actors(cascades)
    day = acts["day"] - start.toordinal()
    if cumulative:
        np.maximum(day, 0, out=day)
    inside = (day >= 0) & (day < n_days)
    actors = day[inside] * graph.n_users + acts["user"][inside]
    out = np.zeros((n_days, graph.n_users), dtype=bool)
    keys = _audience(graph, actors)
    out.reshape(-1)[keys if include_actors else keys[len(actors) :]] = True
    if cumulative:
        np.logical_or.accumulate(out, axis=0, out=out)
    return out


def _code(reach: np.ndarray, cat: TweetCategory) -> np.ndarray:
    """uint8 array holding the category's bit where `reach` is set."""
    return reach.view(np.uint8) * np.uint8(_CATEGORY_BITS[cat])


def _code_counts(code: np.ndarray) -> np.ndarray:
    """(n_days, 8) count of each category code per day of an
    (n_days, n_users) code array."""
    keys = np.flatnonzero(code)
    return _tally(keys, code.reshape(-1)[keys], *code.shape)


def _add_reach(
    code: np.ndarray, counts: np.ndarray, reach: np.ndarray, cat: TweetCategory
) -> np.ndarray:
    """`_code_counts` of `code` with `cat` added wherever `reach` is set,
    updated from `counts` (those of `code`, which must lack `cat`) by
    moving only the reached (day, user) pairs to their new code."""
    keys = np.flatnonzero(reach)
    old = code.reshape(-1)[keys]
    new = old | np.uint8(_CATEGORY_BITS[cat])
    return counts + _tally(keys, new, *code.shape) - _tally(keys, old, *code.shape)


def _tally(keys: np.ndarray, codes: np.ndarray, n_days: int, n_users: int) -> np.ndarray:
    # one bincount over (day, code) for keys day * n_users + user
    return np.bincount(keys // n_users * 8 + codes, minlength=8 * n_days).reshape(n_days, 8)


def exposure_matrix(
    graph: SocialGraph,
    cascades: Sequence[Cascade],
    period: tuple[date, date],
    *,
    cumulative: bool = False,
    include_actors: bool = True,
) -> ExposureMatrix:
    """Daily exposures for every day in the inclusive period."""
    start, end = period
    if end < start:
        raise ExposureError("empty period")
    n_days = (end - start).days + 1
    code = np.zeros((n_days, graph.n_users), dtype=np.uint8)
    for cat in TweetCategory:
        mine = [c for c in cascades if c.seed.category is cat]
        seen = _reach(
            graph, mine, start, n_days, cumulative=cumulative, include_actors=include_actors
        )
        code |= _code(seen, cat)
    return _matrix(start, _code_counts(code))


def _matrix(start: date, per_code: np.ndarray) -> ExposureMatrix:
    """The exposure matrix of per-day category-code counts from `start` on."""
    days = tuple(start + timedelta(days=i) for i in range(len(per_code)))
    return ExposureMatrix(days, per_code[:, _CLASS_CODES])


def total_exposures(matrix: ExposureMatrix) -> np.ndarray:
    """Column sums over the period (the per-class viewer totals)."""
    return matrix.counts.sum(axis=0)
