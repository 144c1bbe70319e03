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

from ._table import at_line, parse_day, parse_number, read_table, write_table
from .cascade import _BYTE_BITS, Cascade, TweetCategory, _actors, _with_neighbors
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


@dataclass(frozen=True, eq=False)
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

    def __eq__(self, other):
        if not isinstance(other, ExposureMatrix):
            return NotImplemented
        return self.days == other.days and np.array_equal(self.counts, other.counts)

    def to_csv(self, path: str | os.PathLike, header_comments: Sequence[str] = ()) -> None:
        rows = ((d, *row) for d, row in zip(self.days, self.counts.tolist()))
        write_table(path, MATRIX_HEADER, rows, header_comments)

    @classmethod
    def from_csv(cls, stream: TextIO | Iterable[str]) -> "ExposureMatrix":
        days: list[date] = []
        rows: list[list[int]] = []
        for line_no, row in read_table(stream, [MATRIX_HEADER], at_line(ExposureError)):
            try:
                days.append(parse_day(row[0]))
                rows.append([parse_number(x, int) for x in row[1:]])
            except ValueError as e:
                raise ExposureError(f"line {line_no}: {e}") from None
            if min(rows[-1]) < 0:
                raise ExposureError(f"line {line_no}: negative class count {min(rows[-1])}")
            if max(rows[-1]) >= 2**63:
                raise ExposureError(
                    f"line {line_no}: class count {max(rows[-1])} does not fit in 64 bits"
                )
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
# (mask byte, lane) -> 1.0 where the byte holds the lane; float64, so that
# its product is BLAS's (numpy's integer matmul is not), exact below 2**53
_LANE_BITS = _BYTE_BITS.astype(np.float64)


def _code_counts(code: np.ndarray) -> np.ndarray:
    """(n_days, 8) count of each category code per day of an
    (n_days, n_users) code array: one bincount over (day, code)."""
    # nonzero finds the set entries of a bool array far faster than of a uint8 one
    keys = np.flatnonzero(code.reshape(-1) != 0)
    day_code = keys // code.shape[1] * 8 + code.reshape(-1)[keys]
    return np.bincount(day_code, minlength=8 * len(code)).reshape(len(code), 8)


def _lane_tally(
    code: np.ndarray, counts: np.ndarray, keys: np.ndarray, masks: np.ndarray, bit: int, lanes: int
) -> np.ndarray:
    """`out[l]` is `_code_counts` of `code` with the category `bit` added at
    the distinct flat `day * n_users + user` indices `keys` whose unsigned
    masks `masks` hold lane l, for each of the low `lanes` lanes.  It moves
    only those pairs from `counts` (those of `code`, which must lack `bit`
    at `keys`): per mask byte, one bincount over (day, old code, byte), then
    the product with the byte's lane bits gives its lanes' moved pairs."""
    pairs = (keys // code.shape[1] * 8 + code.reshape(-1)[keys]) * 256
    moved = np.empty((len(code) * 8, lanes), dtype=np.int64)
    for low in range(0, lanes, 8):  # int64 fields, since uint64 + int64 is float64
        field = (masks >> masks.dtype.type(low) & masks.dtype.type(0xFF)).astype(np.int64)
        by_mask = np.bincount(pairs + field, minlength=len(code) * 8 * 256).reshape(-1, 256)
        moved[:, low : low + 8] = by_mask.astype(np.float64) @ _LANE_BITS[:, : lanes - low]
    moved = moved.T.reshape(lanes, len(code), 8)
    # each code that lacks the bit moves to itself with the bit; code 0 is not counted
    lack = np.flatnonzero((np.arange(8) & bit) == 0)
    out = counts - moved * (np.arange(8) > 0)
    out[:, :, lack | bit] += moved[:, :, lack]
    return out


def exposure_matrix(
    graph: SocialGraph,
    cascades: Sequence[Cascade],
    period: tuple[date, date],
    *,
    cumulative: bool = False,
    include_actors: bool = True,
) -> ExposureMatrix:
    """Daily exposures for every day in the inclusive period."""
    code = _category_code(
        graph, cascades, period, cumulative=cumulative, include_actors=include_actors
    )
    return _matrix(period[0], _code_counts(code))


def _category_code(
    graph: SocialGraph,
    cascades: Sequence[Cascade],
    period: tuple[date, date],
    *,
    cumulative: bool = False,
    include_actors: bool = True,
) -> np.ndarray:
    """(n_days, n_users) uint8 category code of who `cascades` reach on
    each day of the inclusive period: each category's bit is set at the
    `day * n_users + user` keys of its posts' audience.

    An actor (a seed author on the seed day, a retweeter on the retweet
    day) reaches its followers, and itself with `include_actors`.
    `cumulative` counts activity before the period on its first day and
    carries every day's reach forward.
    """
    start, end = period
    if end < start:
        raise ExposureError("empty period")
    code = np.zeros(((end - start).days + 1, graph.n_users), dtype=np.uint8)
    for cat in TweetCategory:
        acts = _actors([c for c in cascades if c.seed.category is cat])
        day = acts["day"] - start.toordinal()
        if cumulative:
            np.maximum(day, 0, out=day)
        inside = (day >= 0) & (day < len(code))
        actors = day[inside] * graph.n_users + acts["user"][inside]
        keys = _with_neighbors(graph._followers, actors, graph.n_users)
        keys = keys[0 if include_actors else len(actors) :]
        # a repeated key writes the same code each time
        code.reshape(-1)[keys] |= np.uint8(_CATEGORY_BITS[cat])
    if cumulative:
        np.bitwise_or.accumulate(code, axis=0, out=code)
    return code


def _matrix(start: date, per_code: np.ndarray) -> ExposureMatrix:
    """The exposure matrix of per-day category-code counts from `start` on."""
    days = tuple(start + timedelta(days=i) for i in range(len(per_code)))
    return ExposureMatrix(days, per_code[:, _CLASS_CODES])


def total_exposures(matrix: ExposureMatrix) -> np.ndarray:
    """Column sums over the period (the per-class viewer totals)."""
    return matrix.counts.sum(axis=0)
