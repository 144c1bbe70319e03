"""Follower graphs: ingestion, synthesis, and adjacency queries.

Edge direction convention: an edge (u, v) means "u follows v", so
information posted by v flows to u.  `follows` is the forward adjacency
(who a user follows) and `followers` the reverse one (the user's audience).
Graphs are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import os
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence, TextIO

import numpy as np

from ._table import atomic_write, csv_field, read_table

log = logging.getLogger("infodemic.graph")

EDGE_HEADER = ["follower_id", "followee_id"]
# `<edges csv>.csr` holds the parsed graph of that CSV: this header, the
# CSV's sha256, then the arrays of `_sidecar_bytes`, each in `np.save`
# format; the header's number is the layout's version
_SIDECAR_HEAD = b"infodemic edge csr 2\n"


class GraphError(ValueError):
    """Invalid graph input or query."""


class EdgeParseError(GraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _Csr:
    """Compact adjacency: per-node sorted neighbor arrays."""

    __slots__ = ("indptr", "indices")

    def __init__(self, n: int, rows: np.ndarray, indices: np.ndarray):
        """From each entry's row (any order) and the entries' neighbors,
        sorted by (row, neighbor)."""
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.indices = indices
        self.indptr.setflags(write=False)
        indices.setflags(write=False)

    def rows(self) -> np.ndarray:
        """The row of each entry of `indices`."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in `a`."""
    mask = np.ones(len(a), dtype=bool)
    mask[1:] = a[1:] != a[:-1]
    return mask


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    # sort + adjacent difference: far cheaper than np.unique's hash path
    a = np.sort(a)
    return a[_run_starts(a)]


class SocialGraph:
    """Immutable follower graph over dense user ids 0..n_users-1.

    External (string) ids from ingestion are retained for round-trip
    export; synthesized graphs use the stringified dense id.
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
        loops = arr[:, 0] == arr[:, 1]
        arr = arr[~loops]
        if len(arr) and (arr.min() < 0 or arr.max() >= n):
            raise GraphError("edge endpoint outside 0..n_users-1")
        if external_ids is None:
            external_ids = [str(i) for i in range(n)]
        keys = _sorted_unique(arr[:, 0] * n + arr[:, 1])
        self._assign(n, keys, external_ids, self_edges_dropped + np.count_nonzero(loops))

    @classmethod
    def _from_keys(
        cls, n: int, keys: np.ndarray, external_ids: Sequence[str], self_edges_dropped: int
    ) -> "SocialGraph":
        """The graph of edge keys `follower * n + followee` that are already
        sorted and distinct, without the constructor's deduplication."""
        g = cls.__new__(cls)
        g._assign(n, keys, external_ids, self_edges_dropped)
        return g

    def _assign(
        self, n: int, keys: np.ndarray, external_ids: Sequence[str], self_edges_dropped: int
    ) -> None:
        """Every graph is built here, from edge keys `follower * n +
        followee`; a `GraphError` unless they strictly increase within
        [0, n*n) and hold no self-edge."""
        if len(external_ids) != n:
            raise GraphError("external_ids length must equal n_users")
        if len(keys) and (keys[0] < 0 or int(keys[-1]) >= n * n or np.any(keys[1:] <= keys[:-1])):
            raise GraphError("edge keys not strictly increasing within [0, n_users**2)")
        src, dst = np.divmod(keys, n)
        if np.any(src == dst):
            raise GraphError("self-edge")
        self.n_users = n
        self.n_edges = len(keys)
        self.self_edges_dropped = self_edges_dropped
        self._follows = _Csr(n, src, dst)
        # the transpose: (followee, follower) keys sorted
        self._followers = _Csr(n, dst, np.sort(dst * n + src) % n)
        self.external_ids = tuple(external_ids)
        self._id_index = {x: i for i, x in enumerate(self.external_ids)}

    # -- queries -----------------------------------------------------------

    def _check(self, u: int) -> int:
        if not 0 <= u < self.n_users:
            raise GraphError(f"user id {u} out of range 0..{self.n_users - 1}")
        return int(u)

    def follows(self, u: int) -> np.ndarray:
        """Users that u follows (sorted, read-only)."""
        return self._follows.neighbors(self._check(u))

    def followers_array(self, u: int) -> np.ndarray:
        """Followers of u as a sorted read-only array (hot path)."""
        return self._followers.neighbors(self._check(u))

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._follows.indptr)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._followers.indptr)

    def dense_id(self, external: str) -> int:
        try:
            return self._id_index[external]
        except KeyError:
            raise GraphError(f"unknown user id {external!r}") from None


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
        if self.n_users < 0:
            raise GraphError("n_users must be >= 0")
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
    left short retries with 2*need+4 fresh candidates, up to 20 attempts in
    all.  The draws for a run of users are taken in one call; only a short
    user, who consumes extra draws, is replayed on its own.
    """
    n = config.n_users
    if n == 0:
        return SocialGraph(0, [])
    rng = np.random.default_rng(config.seed)
    if config.fixed_degree is not None:
        degrees = np.full(n, config.fixed_degree, dtype=np.int64)
    else:
        lo = max(config.min_degree, 0)
        hi = config.n_users - 1 if config.max_degree is None else config.max_degree
        ks = np.arange(max(lo, 1), hi + 1, dtype=np.float64)
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
    degrees = np.minimum(degrees, n - 1)
    takes = np.where(degrees > 0, 2 * degrees + 4, 0)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    # users pos..pos+window-1 are drawn at once; the window shrinks near a
    # short user and doubles after a clean run, so replays stay cheap
    pos, window = 0, n
    while pos < n:
        end = min(pos + window, n)
        state = rng.bit_generator.state
        owner = np.repeat(np.arange(pos, end), takes[pos:end])
        cand = np.searchsorted(cum, rng.random(len(owner)))
        src, dst = _first_distinct(n, owner, cand, degrees)
        short = np.flatnonzero(np.bincount(src - pos, minlength=end - pos) < degrees[pos:end])
        if len(short) == 0:
            srcs.append(src)
            dsts.append(dst)
            pos, window = end, 2 * window
            continue
        u = pos + int(short[0])
        head = src < u
        srcs.append(src[head])
        dsts.append(dst[head])
        # replay u from the start of its draws, then resume after them
        rng.bit_generator.state = state
        rng.bit_generator.advance(int(takes[pos:u].sum()))
        chosen = _retry_followees(rng, cum, u, int(degrees[u]))
        srcs.append(np.full(len(chosen), u, dtype=np.int64))
        dsts.append(np.fromiter(chosen, np.int64, len(chosen)))
        pos, window = u + 1, max(2 * (u - pos), 1)
    return SocialGraph(n, np.column_stack((np.concatenate(srcs), np.concatenate(dsts))))


def _first_distinct(
    n: int, owner: np.ndarray, cand: np.ndarray, degrees: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per owner (grouped, ascending), its first `degrees[owner]` distinct
    candidates other than itself, as (owner, candidate) arrays."""
    ok = cand != owner
    owner, cand = owner[ok], cand[ok]
    keys = owner * n + cand
    order = np.argsort(keys, kind="stable")
    first = np.zeros(len(keys), dtype=bool)
    first[order[_run_starts(keys[order])]] = True
    owner, cand = owner[first], cand[first]
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    take = rank < degrees[owner]
    return owner[take], cand[take]


def _retry_followees(rng: np.random.Generator, cum: np.ndarray, u: int, d: int) -> set[int]:
    """One user's draw loop: rounds of 2*need+4 candidates, at most 20."""
    chosen: set[int] = set()
    attempts = 0
    while len(chosen) < d and attempts < 20:
        need = d - len(chosen)
        cand = np.searchsorted(cum, rng.random(need * 2 + 4))
        for v in cand:
            v = int(v)
            if v != u and v not in chosen:
                chosen.add(v)
                if len(chosen) == d:
                    break
        attempts += 1
    return chosen


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
    _write_sidecar(path, hashlib.sha256(data).digest(), graph)
    return graph


def save_edges(graph: SocialGraph, path: str | os.PathLike) -> None:
    """Write the edge CSV atomically (temp file + rename), rows in
    (follower, followee) dense-id order, then the sidecar `load_edges_file`
    reads for it when every id reloads as it is."""
    fields = np.array([csv_field(x) for x in graph.external_ids], dtype=object)
    src, dst = graph._follows.rows(), graph._follows.indices
    rows = map("{},{}\n".format, fields[src], fields[dst])
    data = (",".join(EDGE_HEADER) + "\n" + "".join(rows)).encode("utf-8")
    atomic_write(path, data)
    if _ids_reload_intact(graph):
        _write_sidecar(path, hashlib.sha256(data).digest(), _reloaded(graph, src))


def _ids_reload_intact(graph: SocialGraph) -> bool:
    """Whether the saved ids parse back as themselves, each its own user:
    distinct, non-empty, free of surrounding whitespace, and neither
    holding a NUL (a csv error before Python 3.11) nor over the csv
    module's field size limit."""
    ids = graph.external_ids
    return (
        len(graph._id_index) == len(ids)
        and all(ids)
        and all(map(str.__eq__, ids, map(str.strip, ids)))
        and "\0" not in "".join(ids)
        and max(map(len, ids), default=0) <= csv.field_size_limit()
    )


def _reloaded(graph: SocialGraph, src: np.ndarray) -> SocialGraph:
    """The graph `load_edges` parses from `save_edges`' CSV of `graph`, whose
    ids reload intact and are distinct: dense ids renumbered by first
    appearance over the rows (`src` their followers), isolated users gone."""
    n, m = graph.n_users, graph.n_edges
    indptr, dst = graph._follows.indptr, graph._follows.indices
    # each user's first position in the interleaved (src, dst) rows: twice
    # its first row as a follower, or twice its first row as a followee plus
    # one; that row holds its smallest follower
    first = np.where(np.diff(indptr) > 0, 2 * indptr[:-1], 2 * m)
    followers = graph._followers
    followee = np.flatnonzero(np.diff(followers.indptr))
    key = followers.indices[followers.indptr[followee]] * n + followee
    first[followee] = np.minimum(first[followee], 2 * np.searchsorted(src * n + dst, key) + 1)
    order = np.argsort(first)[: np.count_nonzero(first < 2 * m)]
    dense = np.empty(n, dtype=np.int64)
    dense[order] = np.arange(len(order))
    keys = np.sort(dense[src] * len(order) + dense[dst])
    ids = graph.external_ids
    return SocialGraph._from_keys(len(order), keys, [ids[u] for u in order.tolist()], 0)


def _sidecar_path(path: str | os.PathLike) -> str:
    return os.fspath(path) + ".csr"


def _sidecar_bytes(graph: SocialGraph, digest: bytes) -> bytes:
    """Header, CSV digest, then meta, the sorted edge keys, per-id
    code-point lengths and the UTF-8 id blob.  `np.save` output carries no
    timestamp, so equal graphs give equal bytes."""
    n, ids, follows = graph.n_users, graph.external_ids, graph._follows
    arrays = (
        np.array([n, graph.self_edges_dropped], dtype=np.int64),
        follows.rows() * n + follows.indices,
        np.fromiter(map(len, ids), np.int64, len(ids)),
        np.frombuffer("".join(ids).encode("utf-8"), dtype=np.uint8),
    )
    buf = io.BytesIO()
    buf.write(_SIDECAR_HEAD + digest)
    for a in arrays:
        np.save(buf, a, allow_pickle=False)
    return buf.getvalue()


def _write_sidecar(csv_path: str | os.PathLike, digest: bytes, graph: SocialGraph) -> None:
    path = _sidecar_path(csv_path)
    try:
        atomic_write(path, _sidecar_bytes(graph, digest))
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
        lengths = _load_array(fh, np.int64, n)
        text = _load_array(fh, np.uint8).tobytes().decode("utf-8")
    if np.any(lengths < 0) or int(lengths.sum()) != len(text):
        raise ValueError("id lengths do not match the id blob")
    ends = np.cumsum(lengths).tolist()
    ids = [text[a:b] for a, b in zip([0] + ends[:-1], ends)]
    graph = SocialGraph._from_keys(n, keys, ids, dropped)  # a GraphError on bad keys
    if len(graph._id_index) != n:
        raise ValueError("repeated id")
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
    return np.frombuffer(fh.read(nbytes), dtype=dt)
