"""Follower graphs: ingestion, synthesis, and their two adjacency CSRs.

Edge direction convention: an edge (u, v) means "u follows v", so
information posted by v flows to u.  A graph holds two read-only CSRs
with sorted rows: `_follows` (row u: who u follows) and its transpose
`_followers` (row v: v's audience), read a batch of rows at a time.
Graphs are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import os
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO

import numpy as np

from ._table import atomic_write, csv_field, read_table

log = logging.getLogger("infodemic.graph")

EDGE_HEADER = ["follower_id", "followee_id"]
# `<edges csv>.csr` holds the parsed graph of that CSV: this header, the
# CSV's sha256, then the arrays of `_write_sidecar`, each in `np.save`
# format; the header's number is the layout's version
_SIDECAR_HEAD = b"infodemic edge csr 3\n"
_SAVE_ROWS = 1 << 14  # edge rows `save_edges` gathers at once: bounds its per-byte index
_ASSIGN_KEYS = 1 << 14  # edge keys `SocialGraph._assign` reads at once: bounds its temporaries
# first-round draws `generate_graph` makes at once: its working memory
# stays in cache instead of fresh pages each window
_WINDOW_DRAWS = 1 << 14
_MAX_USERS = 2**31 - 1  # the most users a graph holds: every dense id fits int32


class GraphError(ValueError):
    """Invalid graph input or query."""


class EdgeParseError(GraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _Csr:
    """Compact adjacency: per-node sorted neighbor arrays.

    `indptr` is int64 and `indices` int32, which holds every dense id; a
    neighbor index is widened to int64 before it is multiplied or shifted
    (`indices * n` overflows int32 once n > 46,340).  It is built in place,
    a slice of entries at a time, so its build holds no entry-sized
    temporary."""

    __slots__ = ("indptr", "indices")

    def __init__(self, n: int, m: int):
        """Empty, with `n` rows and `m` entries, which `fill` writes and
        `close` ends."""
        self.indptr = np.zeros(n + 1, dtype=np.int64)  # row r's count at r + 1 until `close`
        self.indices = np.empty(m, dtype=np.int32)

    def fill(self, at: int, rows: np.ndarray, cols: np.ndarray) -> None:
        """Entries at, at + 1, ...: `cols` in rows `rows`, which ascend
        from the last row filled before."""
        self.indices[at : at + len(cols)] = cols
        counts = np.bincount(rows - rows[0])
        self.indptr[rows[0] + 1 : rows[0] + 1 + len(counts)] += counts

    def close(self) -> None:
        """Row offsets from the counts filled, and both arrays read-only."""
        np.cumsum(self.indptr, out=self.indptr)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    def rows(self) -> np.ndarray:
        """The row of each entry of `indices`."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in `a`."""
    mask = np.ones(len(a), dtype=bool)
    mask[1:] = a[1:] != a[:-1]
    return mask


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    # sort + adjacent difference: far cheaper than np.unique's hash path
    a = np.sort(a)
    return a[_run_starts(a)]


def _row_gather(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of a segment-gather: `indptr[r]` .. `indptr[r + 1] - 1` for each r of `rows`."""
    first, counts = indptr[rows], indptr[rows + 1] - indptr[rows]
    return np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


class SocialGraph:
    """Immutable follower graph over dense user ids 0..n_users-1, at most
    2**31 - 1 of them.

    External (string) ids from ingestion are retained for round-trip
    export; they are distinct, and their id-to-dense-id dict is built with
    the graph.  A graph built without them (every synthesized graph) stores
    none: its external ids are its dense ids in decimal, built when
    `external_ids` is read, and their dict on the first `dense_id`.
    """

    def __init__(
        self,
        n_users: int,
        edges: np.ndarray | Sequence[tuple[int, int]],
        external_ids: Sequence[str] | None = None,
        self_edges_dropped: int = 0,
    ):
        """`edges` is an (m, 2) array of (follower, followee) dense ids;
        duplicates collapse and self-edges are dropped, each row counted."""
        n = int(n_users)
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edges must be (follower, followee) pairs")
        if len(arr) and (arr.min() < 0 or arr.max() >= n):
            raise GraphError("edge endpoint outside 0..n_users-1")
        loops = arr[:, 0] == arr[:, 1]
        arr = arr[~loops]
        keys = _sorted_unique(arr[:, 0] * n + arr[:, 1])
        self._assign(n, keys, external_ids, self_edges_dropped + np.count_nonzero(loops))

    def _assign(
        self, n: int, keys: np.ndarray, external_ids: Sequence[str] | None, self_edges_dropped: int
    ) -> None:
        """Every graph is built here, from edge keys `follower * n +
        followee`, a writable int64 array that the build overwrites; a
        `GraphError` unless `n` is at most `_MAX_USERS`, they strictly
        increase within [0, n*n) without a self-edge, and no id repeats.

        The keys are read `_ASSIGN_KEYS` at a time: each slice is checked,
        fills the follows CSR and is overwritten by its packed `followee <<
        32 | follower` (both ids whole, as n < 2**31), whose sort in place
        orders the transpose; that fills the followers CSR a slice at a
        time.  So beside the graph the build holds `keys` and slice-sized
        temporaries."""
        if not 0 <= n <= _MAX_USERS:
            raise GraphError(f"n_users must be in [0, {_MAX_USERS}]")
        self._ids = self._id_index = None
        if external_ids is not None:
            if len(external_ids) != n:
                raise GraphError("external_ids length must equal n_users")
            self._ids = tuple(external_ids)
            self._id_index = dict(zip(self._ids, range(n)))
            if len(self._id_index) != n:  # a repeat keeps its last dense id
                u = next(u for u, x in enumerate(self._ids) if self._id_index[x] != u)
                raise GraphError(f"repeated user id {self._ids[u]!r}")
        m, last = len(keys), -1  # last: the last key read
        follows, followers = _Csr(n, m), _Csr(n, m)
        for a in range(0, m, _ASSIGN_KEYS):
            k = keys[a : a + _ASSIGN_KEYS]
            if k[0] <= last or int(k[-1]) >= n * n or np.any(k[1:] <= k[:-1]):
                raise GraphError("edge keys not strictly increasing within [0, n_users**2)")
            last = int(k[-1])
            src = k // n  # `//` by a scalar has a fast path in numpy; `divmod` has none
            dst = k - src * n
            if np.any(src == dst):
                raise GraphError("self-edge")
            follows.fill(a, src, dst)
            np.left_shift(dst, 32, out=k)
            k |= src
        keys.sort()
        for a in range(0, m, _ASSIGN_KEYS):
            t = keys[a : a + _ASSIGN_KEYS]
            followers.fill(a, t >> 32, t & 0xFFFFFFFF)
        follows.close()
        followers.close()
        self.n_users = n
        self.n_edges = m
        self.self_edges_dropped = self_edges_dropped
        self._follows = follows
        self._followers = followers

    @property
    def external_ids(self) -> tuple[str, ...]:
        """Each user's external id, by dense id."""
        if self._ids is None:
            return tuple(map(str, range(self.n_users)))
        return self._ids

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._followers.indptr)

    def dense_id(self, external: str) -> int:
        if self._id_index is None:
            self._id_index = dict(zip(self.external_ids, range(self.n_users)))
        u = self._id_index.get(external, -1)
        if u < 0:
            raise GraphError(f"unknown user id {external!r}")
        return u


@dataclass(frozen=True)
class GraphGenConfig:
    """Synthetic follower-graph recipe.

    Out-degrees (follows counts) are drawn from a truncated discrete power
    law with the given exponent, or are all `fixed_degree` when set.
    Followees are chosen with popularity weights that are themselves
    power-law distributed, which produces heavy-tailed follower counts.
    """

    n_users: int
    exponent: float = 2.5
    min_degree: int = 1
    max_degree: int | None = None
    fixed_degree: int | None = None
    # shape of the followee-popularity weights (smaller = more concentrated
    # follower counts on a few hub accounts)
    popularity_exponent: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.n_users <= _MAX_USERS:
            raise GraphError(f"n_users must be in [0, {_MAX_USERS}]")
        if not self.popularity_exponent > 0:  # nan included
            raise GraphError("popularity_exponent must be > 0")
        if self.n_users == 0:
            return
        if self.fixed_degree is not None:
            if not 0 <= self.fixed_degree < self.n_users:
                raise GraphError("fixed_degree must be in [0, n_users)")
            return
        if not self.exponent > 1:
            raise GraphError("power-law exponent must be > 1")
        hi = self.n_users - 1 if self.max_degree is None else self.max_degree
        if not 0 <= self.min_degree <= hi < self.n_users:
            raise GraphError("need 0 <= min_degree <= max_degree < n_users")


def generate_graph(config: GraphGenConfig) -> SocialGraph:
    """Deterministic synthetic graph for a fixed config (seed included).

    Each user u with out-degree d draws 2d+4 popularity-weighted
    candidates and follows the first d distinct ones other than u.  A user
    left short draws further rounds of 2*need+4 candidates, need being the
    followees it lacks, up to 20 rounds in all, and follows the first d
    distinct ones other than u of all its draws.  The first rounds of a run
    of users are drawn in one call of at most `_WINDOW_DRAWS` draws (or one
    user's), a short user's further rounds alone; the draws continue one
    stream, so the graph does not depend on how they are split.  The
    windows share one `_guide` table, and write their keys into one array
    sized for every user's degree, which the graph's build then turns into
    its sorted transpose in place.
    """
    n = config.n_users
    if n == 0:
        return SocialGraph(0, [])
    rng = np.random.default_rng(config.seed)
    if config.fixed_degree is not None:
        degrees = np.full(n, config.fixed_degree, dtype=np.int64)
    else:
        hi = config.n_users - 1 if config.max_degree is None else config.max_degree
        ks = np.arange(max(config.min_degree, 1), hi + 1, dtype=np.float64)
        if len(ks) == 0:
            degrees = np.zeros(n, dtype=np.int64)
        else:
            w = ks ** (-config.exponent)
            w /= w.sum()
            degrees = rng.choice(ks.astype(np.int64), size=n, p=w)
    # popularity weights: heavy-tailed follower counts
    pop = rng.pareto(config.popularity_exponent, size=n) + 1.0
    cum = np.cumsum(pop / pop.sum())
    cum[-1] = 1.0
    takes = np.where(degrees > 0, 2 * degrees + 4, 0)
    drawn = np.concatenate(([0], np.cumsum(takes)))  # first-round draws before each user
    guide = _guide(cum, int(drawn[-1]))
    keys = np.empty(int(degrees.sum()), dtype=np.int64)  # sorted edge keys, keys[:at] written
    at = 0
    # users pos..end-1 are drawn at once, at most `_WINDOW_DRAWS` draws (at
    # least one user); the window shrinks near a short user and doubles
    # after a clean run, so replays stay cheap
    pos, window = 0, n
    while pos < n:
        fit = int(np.searchsorted(drawn, drawn[pos] + _WINDOW_DRAWS, side="right")) - 1
        end = min(pos + window, max(fit, pos + 1))
        state = rng.bit_generator.state
        got = _window(n, cum, guide, degrees, takes, rng, pos, end)
        # user pos + i's keys are got[bounds[i]:bounds[i + 1]]
        bounds = np.searchsorted(got, np.arange(pos, end + 1) * n)
        short = np.flatnonzero(np.diff(bounds) < degrees[pos:end])
        if len(short) == 0:
            keys[at : at + len(got)] = got
            at += len(got)
            pos, window = end, 2 * window
            continue
        u = pos + int(short[0])
        lo, hi = bounds[short[0]], bounds[short[0] + 1]
        keys[at : at + lo] = got[:lo]
        at += lo
        # u's further rounds come after its first, before the next users' draws
        rng.bit_generator.state = state
        rng.bit_generator.advance(int(drawn[u + 1] - drawn[pos]))
        # a further round's few draws: plain Python beats array calls
        d, chosen = int(degrees[u]), (got[lo:hi] - u * n).tolist()
        taken = {u, *chosen}
        for _ in range(19):
            if len(chosen) == d:
                break
            for v in np.searchsorted(cum, rng.random(2 * (d - len(chosen)) + 4)).tolist():
                if v not in taken:
                    taken.add(v)
                    chosen.append(v)
                    if len(chosen) == d:
                        break
        keys[at : at + len(chosen)] = u * n + np.sort(np.array(chosen, dtype=np.int64))
        at += len(chosen)
        pos, window = u + 1, max(2 * (u - pos), 1)
    del guide
    graph = SocialGraph.__new__(SocialGraph)  # keys sorted and distinct: no deduplication
    graph._assign(n, keys[:at], None, 0)
    return graph


def _window(
    n: int, cum: np.ndarray, guide: np.ndarray, degrees: np.ndarray, takes: np.ndarray,
    rng: np.random.Generator, pos: int, end: int,
) -> np.ndarray:
    """The sorted edge keys of users pos..end-1 from their first rounds,
    `takes[u]` draws each, looked up through `cum`'s `guide`; its own
    function, so that its draw-sized temporaries are freed before the next
    window."""
    owner = np.repeat(np.arange(pos, end), takes[pos:end])
    return _first_distinct(n, owner, _lookup(cum, guide, rng.random(len(owner))), degrees)


_LOOKUP_STEPS = 4  # guide-table steps before the draws left go to a binary search


def _guide(cum: np.ndarray, n_draws: int) -> np.ndarray:
    """`_lookup`'s guide table for `n_draws` draws in all against `cum`:
    the first index of `cum` at or above each of `b` equal buckets of
    [0, 1).  `b` is a power of two, so that `draw * b` and `k / b` are
    exact, and about the smaller of the CDF's length and the draw count,
    so that a few draws against a long CDF build a small table."""
    b = 1 << max(min(len(cum), n_draws) - 1, 0).bit_length()
    return np.searchsorted(cum, np.arange(b) / b)


def _lookup(cum: np.ndarray, guide: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """`np.searchsorted(cum, draws)` for draws in [0, 1) and `cum` ending in
    1.0, through `cum`'s `_guide`, which a graph builds once for all its
    windows.

    The guide gives each draw a first index at or below its answer; draws
    step forward from there, and the few left after `_LOOKUP_STEPS` steps
    are searched.
    """
    b = len(guide)
    picks = np.take(guide, (draws * b).astype(np.intp))
    todo = np.flatnonzero(np.take(cum, picks) < draws)
    for _ in range(_LOOKUP_STEPS):
        if len(todo) == 0:
            return picks
        picks[todo] = step = np.take(picks, todo) + 1
        todo = todo[np.take(cum, step) < np.take(draws, todo)]
    picks[todo] = np.searchsorted(cum, draws[todo])
    return picks


def _first_distinct(
    n: int, owner: np.ndarray, cand: np.ndarray, degrees: np.ndarray
) -> np.ndarray:
    """The sorted edge keys `owner * n + candidate` of each owner's first
    `degrees[owner]` distinct candidates other than itself; `owner` is
    ascending, so an owner's candidates are contiguous."""
    at = np.flatnonzero(_first_draws(n, owner, cand))
    owner, cand = owner[at], cand[at]
    # rank within the owner, by draw position
    heads = np.flatnonzero(_run_starts(owner))
    rank = np.arange(len(owner)) - np.repeat(heads, np.diff(heads, append=len(owner)))
    take = rank < degrees[owner]
    return np.sort(owner[take] * n + cand[take])


def _first_draws(n: int, owner: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Mask of the first draw of each (owner, candidate) pair but (u, u),
    for `owner` ascending, by one sort of the packed `cand << s | position`;
    its own function, so that its draw-sized temporaries are freed before
    the ranking (a lower peak RSS)."""
    s = len(owner).bit_length()
    if n << s >= 1 << 63:
        raise GraphError("too many draws to pack beside a user id in 64 bits")
    # sorted by (candidate, position), so by (candidate, owner, position):
    # an (owner, candidate) pair's repeats are adjacent, its first draw first
    packed = cand << s
    packed |= np.arange(len(owner))
    packed.sort()
    at = packed & ((1 << s) - 1)
    packed >>= s
    who = owner[at]
    first = np.zeros(len(owner), dtype=bool)
    first[at[(_run_starts(packed) | _run_starts(who)) & (packed != who)]] = True
    return first


def load_edges(stream: TextIO | Iterable[str]) -> SocialGraph:
    """Parse `follower_id,followee_id` CSV records into a graph.

    The table format (prologue, quoting, line numbers) is `_table`'s.
    Fields are stripped of surrounding whitespace.  Duplicate edges collapse
    to one; self-edges are dropped and counted (exposed as
    `SocialGraph.self_edges_dropped`, with a logged warning) before ids are
    assigned, so an id seen only in self-edges gets none.  External ids are
    remapped to dense integers in first-appearance order.  A stream with
    no header record (empty, or only blank and `#` lines) is an empty graph.
    """
    index: dict[str, int] = {}
    codes: list[int] = []
    self_edges = 0
    rows = read_table(
        stream, [EDGE_HEADER], EdgeParseError, record="edge record", headerless_empty=True
    )
    for line_no, (a, b) in rows:
        if not a or not b:
            raise EdgeParseError(line_no, f"malformed edge record {[a, b]!r}")
        if a == b:
            self_edges += 1
        else:
            codes += index.setdefault(a, len(index)), index.setdefault(b, len(index))
    if self_edges:
        log.warning("dropped %d self-follow edge(s)", self_edges)
    edges = np.array(codes, dtype=np.int64).reshape(-1, 2)
    del codes  # its int objects outweigh the graph: free them before the graph is built
    return SocialGraph(len(index), edges, external_ids=list(index), self_edges_dropped=self_edges)


def load_edges_file(path: str | os.PathLike) -> SocialGraph:
    """`load_edges` of the file, parsed at most once per content.

    The parse is kept in the sidecar `<path>.csr`, keyed by the CSV's
    sha256 and a format version, and later loads of the same bytes read the
    graph from there.  A sidecar that is missing, stale, unreadable or
    inconsistent means a parse, and a sidecar that cannot be written is
    left out; neither is an error.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    try:
        graph = _read_sidecar(_sidecar_path(path), digest.digest())
    except (OSError, ValueError, EOFError) as e:  # UnicodeDecodeError is a ValueError
        log.debug("parsing %s: its sidecar is unusable (%s)", path, e)
    else:
        if graph.self_edges_dropped:
            log.warning("dropped %d self-follow edge(s)", graph.self_edges_dropped)
        return graph
    # the sidecar is keyed by the bytes parsed, even if the file just changed
    with open(path, "rb") as fh:
        data = fh.read()
    # the text stream `open(path, encoding="utf-8", newline="")` would give
    graph = load_edges(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    follows = graph._follows
    keys, ids = follows.rows() * graph.n_users + follows.indices, graph.external_ids
    if _ids_reload_intact(ids):  # a parsed id may hold a NUL
        _write_sidecar(path, hashlib.sha256(data).digest(), keys, ids, graph.self_edges_dropped)
    return graph


def save_edges(graph: SocialGraph, path: str | os.PathLike) -> None:
    """Write the edge CSV atomically (temp file + rename), rows in
    (follower, followee) dense-id order, then the sidecar `load_edges_file`
    reads for it when every id reloads as it is."""
    ids = graph.external_ids  # read once: a generated graph builds them on each read
    fields = [csv_field(x).encode("utf-8") for x in ids]
    # every field ending in ",", then every field ending in "\n": a row gathers two of them
    blob = np.frombuffer(b",".join(fields) + b"," + b"\n".join(fields) + b"\n", dtype=np.uint8)
    size = np.fromiter(map(len, fields), np.int64, len(fields)) + 1
    bounds = np.cumsum(np.concatenate(([0], size, size)))
    src, dst = graph._follows.rows(), graph._follows.indices
    digest = hashlib.sha256()

    def chunks() -> Iterator[bytes]:
        """The header, then `_SAVE_ROWS` rows at a time, each hashed as it
        is written, so the whole CSV is never held."""
        header = (",".join(EDGE_HEADER) + "\n").encode("utf-8")
        digest.update(header)
        yield header
        for a in range(0, len(src), _SAVE_ROWS):
            followee = dst[a : a + _SAVE_ROWS].astype(np.int64) + len(fields)
            seg = np.column_stack((src[a : a + _SAVE_ROWS], followee))
            chunk = blob[_row_gather(bounds, seg.ravel())].tobytes()
            digest.update(chunk)
            yield chunk

    atomic_write(path, chunks())
    if _ids_reload_intact(ids):
        _write_sidecar(path, digest.digest(), *_reloaded(graph, src, ids), 0)


def _ids_reload_intact(ids: Sequence[str]) -> bool:
    """Whether the saved ids, distinct as a graph's are, parse back as
    themselves: non-empty, free of surrounding whitespace, and neither
    holding a NUL (a csv error before Python 3.11, and the sidecar's id
    separator) nor over the csv module's field size limit."""
    return (
        all(ids)
        and all(map(str.__eq__, ids, map(str.strip, ids)))
        and "\0" not in "".join(ids)
        and max(map(len, ids), default=0) <= csv.field_size_limit()
    )


def _reloaded(
    graph: SocialGraph, src: np.ndarray, ids: Sequence[str]
) -> tuple[np.ndarray, list[str]]:
    """The sorted edge keys and ids of the graph `load_edges` parses from
    `save_edges`' CSV of `graph`, whose ids `ids` reload intact and are
    distinct: dense ids renumbered by first appearance over the rows (`src`
    their followers), isolated users gone."""
    n, m = graph.n_users, graph.n_edges
    indptr, dst = graph._follows.indptr, graph._follows.indices
    # each user's first position in the interleaved (src, dst) rows: twice
    # its first row as a follower, or twice its first row as a followee plus
    # one; that row holds its smallest follower
    first = np.where(np.diff(indptr) > 0, 2 * indptr[:-1], 2 * m)
    followers = graph._followers
    followee = np.flatnonzero(np.diff(followers.indptr))
    key = followers.indices[followers.indptr[followee]].astype(np.int64) * n + followee
    first[followee] = np.minimum(first[followee], 2 * np.searchsorted(src * n + dst, key) + 1)
    order = np.argsort(first)[: np.count_nonzero(first < 2 * m)]
    dense = np.empty(n, dtype=np.int64)
    dense[order] = np.arange(len(order))
    keys = dense[src]
    keys *= len(order)
    keys += dense[dst]
    keys.sort()
    return keys, [ids[u] for u in order.tolist()]


def _sidecar_path(path: str | os.PathLike) -> str:
    return os.fspath(path) + ".csr"


def _write_sidecar(
    csv_path: str | os.PathLike, digest: bytes, keys: np.ndarray, ids: Sequence[str], dropped: int
) -> None:
    """The sidecar of the CSV of sha256 `digest`: header, digest, then meta
    (user count, `dropped` self-edges), the sorted edge `keys` and the
    UTF-8 blob of `ids`, a user each, NUL-separated (no id holds a NUL).
    Each array is written as `np.save` writes it, its header and then its
    own buffer, so the file is never copied whole; that output carries no
    timestamp, so equal graphs give equal bytes."""
    path = _sidecar_path(csv_path)

    def parts() -> Iterator[bytes | memoryview]:
        yield _SIDECAR_HEAD + digest
        for a in (
            np.array([len(ids), dropped], dtype=np.int64),
            keys,
            np.frombuffer("\0".join(ids).encode("utf-8"), dtype=np.uint8),
        ):
            head = io.BytesIO()
            np.lib.format.write_array_header_1_0(head, np.lib.format.header_data_from_array_1_0(a))
            yield head.getvalue()
            yield memoryview(a).cast("B")

    try:
        atomic_write(path, parts())
    except (OSError, ValueError) as e:
        log.debug("edge sidecar %s not written: %s", path, e)


def _read_sidecar(path: str, digest: bytes) -> SocialGraph:
    """The graph stored in sidecar `path` for the CSV of sha256 `digest`;
    a `ValueError` when it was made for other bytes or does not hold a
    consistent graph."""
    with open(path, "rb") as fh:
        if fh.read(len(_SIDECAR_HEAD) + len(digest)) != _SIDECAR_HEAD + digest:
            raise ValueError("made for another version or other bytes")
        n, dropped = _load_array(fh, np.int64, 2).tolist()
        if min(n, dropped) < 0:
            raise ValueError("negative size")
        keys = _load_array(fh, np.int64)
        text = _load_array(fh, np.uint8).tobytes().decode("utf-8")
    ids = text.split("\0") if text else []
    graph = SocialGraph.__new__(SocialGraph)  # keys sorted and distinct: no deduplication
    graph._assign(n, keys, ids, dropped)  # a GraphError on bad keys or ids
    return graph


def _load_array(fh: BinaryIO, dtype: type, length: int | None = None) -> np.ndarray:
    """The next `np.save`d array, which must be 1-d of `dtype` (and
    `length`); its header is checked before its data is read."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not an npy 1.0 array")
    shape, _, dt = np.lib.format.read_array_header_1_0(fh)
    if dt != np.dtype(dtype) or len(shape) != 1 or length not in (None, shape[0]):
        raise ValueError("array of the wrong type or length")
    nbytes = shape[0] * dt.itemsize
    if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("truncated")
    a = np.empty(shape[0], dtype=dt)  # writable: `SocialGraph._assign` overwrites the keys
    if fh.readinto(memoryview(a).cast("B")) != nbytes:
        raise ValueError("truncated")
    return a
