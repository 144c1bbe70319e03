"""Daily possible-viewer counts split into the seven exposure classes.

For each day, every user is classified by the set of content categories
that became visible to them that day (through same-day seed posts or
retweets by accounts they follow).  The seven non-empty category
combinations partition the day's exposed users; users with no same-day
exposure are not counted.  Daily counts are summed over days with
repetition: the same user can contribute to a class on several days.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Iterable, Sequence, TextIO

import numpy as np

from ._table import read_table, write_table
from .cascade import Cascade, TweetCategory
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
class DailyExposure:
    day: date
    counts: tuple[int, int, int, int, int, int, int]

    @property
    def total_exposed(self) -> int:
        return sum(self.counts)


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
            if b != a + timedelta(days=1):
                raise ExposureError("days must be contiguous and increasing")

    def to_csv(self, path: str | os.PathLike, header_comments: Sequence[str] = ()) -> None:
        rows = ((d, *row) for d, row in zip(self.days, self.counts.tolist()))
        write_table(path, MATRIX_HEADER, rows, header_comments)

    @classmethod
    def from_csv(cls, stream: TextIO | Iterable[str]) -> "ExposureMatrix":
        days: list[date] = []
        rows: list[list[int]] = []
        for line_no, row in read_table(stream, [MATRIX_HEADER], ExposureError):
            try:
                days.append(date.fromisoformat(row[0]))
                rows.append([int(x) for x in row[1:]])
            except ValueError as e:
                raise ExposureError(f"line {line_no}: {e}") from None
        return cls(tuple(days), np.array(rows, dtype=np.int64).reshape(len(days), 7))


def _category_masks(
    graph: SocialGraph,
    cascades: Sequence[Cascade],
    day: date,
    *,
    cumulative: bool,
    include_actors: bool,
) -> dict[TweetCategory, np.ndarray]:
    masks = {cat: np.zeros(graph.n_users, dtype=bool) for cat in TweetCategory}
    for c in cascades:
        m = masks[c.seed.category]
        hit = c.seed.day == day or (cumulative and c.seed.day <= day)
        if hit:
            m[graph.followers_array(c.seed.author)] = True
            if include_actors:
                m[c.seed.author] = True
        for ev in c.events:
            if ev.day == day or (cumulative and ev.day <= day):
                m[graph.followers_array(ev.user)] = True
                if include_actors:
                    m[ev.user] = True
    return masks


def daily_exposures(
    graph: SocialGraph,
    cascades: Sequence[Cascade],
    day: date,
    *,
    cumulative: bool = False,
    include_actors: bool = True,
) -> DailyExposure:
    """Classify every user exposed on `day` into exactly one of the seven
    classes and count each class.

    `cumulative` classifies by all exposure up to and including the day
    instead of the day alone.  `include_actors` counts tweet authors and
    retweeters themselves as viewers of their own action (default on).
    """
    m = _category_masks(
        graph, cascades, day, cumulative=cumulative, include_actors=include_actors
    )
    c = m[TweetCategory.CORRECTIVE]
    mi = m[TweetCategory.MISINFORMATION]
    s = m[TweetCategory.SOLDOUT]
    counts = (
        int(np.count_nonzero(c & ~mi & ~s)),
        int(np.count_nonzero(~c & mi & ~s)),
        int(np.count_nonzero(~c & ~mi & s)),
        int(np.count_nonzero(c & mi & ~s)),
        int(np.count_nonzero(c & ~mi & s)),
        int(np.count_nonzero(~c & mi & s)),
        int(np.count_nonzero(c & mi & s)),
    )
    return DailyExposure(day, counts)


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
    days: list[date] = []
    rows: list[tuple[int, ...]] = []
    d = start
    while d <= end:
        days.append(d)
        rows.append(
            daily_exposures(
                graph, cascades, d, cumulative=cumulative, include_actors=include_actors
            ).counts
        )
        d += timedelta(days=1)
    return ExposureMatrix(tuple(days), np.array(rows, dtype=np.int64))


def total_exposures(matrix: ExposureMatrix) -> np.ndarray:
    """Column sums over the period (the per-class viewer totals)."""
    return matrix.counts.sum(axis=0)
