import csv
import hashlib
import io
import re
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import followees, followers
from infodemic import _table as table_module
from infodemic import graph as graph_module
from infodemic import replica as replica_module
from infodemic._rng import derive_seed
from infodemic.cascade import _lane_reach
from infodemic.graph import (
    EDGE_HEADER,
    EdgeParseError,
    GraphError,
    GraphGenConfig,
    SocialGraph,
    generate_graph,
    load_edges,
    load_edges_file,
    save_edges,
)
from infodemic.replica import ReplicaConfig, build_replica


def edges_of(g: SocialGraph) -> list[tuple[int, int]]:
    """All (follower, followee) pairs, sorted."""
    return [(u, int(v)) for u in range(g.n_users) for v in followees(g, u)]


def test_basic_adjacency():
    g = SocialGraph(4, [(0, 1), (2, 1), (1, 3)])
    assert g.n_users == 4
    assert g.n_edges == 3
    assert list(followees(g, 0)) == [1]
    assert list(followers(g, 1)) == [0, 2]
    assert list(followers(g, 3)) == [1]
    assert list(followees(g, 3)) == []


def test_duplicate_edges_collapse():
    g = SocialGraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
    assert g.n_edges == 2


def test_self_edges_dropped_and_counted():
    g = SocialGraph(3, [(0, 0), (1, 1), (0, 2)])
    assert g.n_edges == 1
    assert g.self_edges_dropped == 2
    # each row counts, as in a parsed CSV
    g = SocialGraph(2, [(0, 0), (0, 0), (0, 1)])
    assert g.self_edges_dropped == 2
    assert load_edges(io.StringIO("follower_id,followee_id\na,a\na,a\na,b\n")).self_edges_dropped == 2


def test_edge_endpoint_out_of_range():
    with pytest.raises(GraphError):
        SocialGraph(2, [(0, 5)])
    with pytest.raises(GraphError):
        SocialGraph(2, [(-1, 0)])
    # an out-of-range self-edge is out of range, not a dropped self-edge
    with pytest.raises(GraphError):
        SocialGraph(3, [(5, 5), (0, 1)])
    with pytest.raises(GraphError):
        SocialGraph(3, [(-1, -1)])


def test_degrees_match_edge_list():
    g = SocialGraph(5, [(0, 1), (0, 2), (3, 2), (4, 2), (2, 0)])
    assert list(np.diff(g._follows.indptr)) == [2, 0, 1, 1, 1]
    assert list(g.in_degrees()) == [1, 1, 3, 0, 0]
    assert edges_of(g) == [(0, 1), (0, 2), (2, 0), (3, 2), (4, 2)]


def test_neighbor_arrays_read_only():
    g = SocialGraph(3, [(0, 1), (0, 2)])
    for csr in (g._follows, g._followers):
        with pytest.raises(ValueError):
            csr.indices[0] = 9


@given(
    st.integers(2, 10),
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_follows_followers_are_transposes(n, raw):
    edges = [(a % n, b % n) for a, b in raw if a % n != b % n]
    g = SocialGraph(n, edges)
    for u in range(n):
        for v in followees(g, u):
            assert u in followers(g, int(v))
        for w in followers(g, u):
            assert u in set(int(x) for x in followees(g, int(w)))


# -- synthesis ---------------------------------------------------------------


def test_generate_deterministic():
    cfg = GraphGenConfig(n_users=200, seed=42, min_degree=1, max_degree=20)
    g1, g2 = generate_graph(cfg), generate_graph(cfg)
    assert edges_of(g1) == edges_of(g2)


def test_generate_seed_changes_graph():
    a = generate_graph(GraphGenConfig(n_users=200, seed=1))
    b = generate_graph(GraphGenConfig(n_users=200, seed=2))
    assert edges_of(a) != edges_of(b)


def test_generate_degree_bounds():
    g = generate_graph(GraphGenConfig(n_users=300, seed=3, min_degree=2, max_degree=9))
    deg = np.diff(g._follows.indptr)
    assert deg.min() >= 2
    assert deg.max() <= 9


def test_generate_fixed_degree():
    g = generate_graph(GraphGenConfig(n_users=50, seed=0, fixed_degree=4))
    assert list(np.diff(g._follows.indptr)) == [4] * 50


def test_generate_heavy_tailed_follower_counts():
    g = generate_graph(GraphGenConfig(n_users=2000, seed=5, min_degree=3, popularity_exponent=1.2))
    ind = np.sort(g.in_degrees())[::-1]
    # a few hub accounts dominate; the median account has almost no audience
    assert ind[0] > 30 * max(np.median(ind), 1)


def test_generate_empty_graph():
    g = generate_graph(GraphGenConfig(n_users=0))
    assert g.n_users == 0
    assert g.n_edges == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_users=-1),
        dict(n_users=10, exponent=1.0),
        dict(n_users=10, min_degree=-1),
        dict(n_users=10, min_degree=5, max_degree=4),
        dict(n_users=10, max_degree=10),
        dict(n_users=10, fixed_degree=10),
    ],
)
def test_generate_config_validation(kwargs):
    with pytest.raises(GraphError):
        GraphGenConfig(**kwargs)


@pytest.mark.parametrize("exponent", [float("nan"), 0.0, -1.0])
@pytest.mark.parametrize("shape", [dict(), dict(fixed_degree=3), dict(n_users=0)])
def test_generate_config_rejects_a_popularity_exponent_not_above_zero(exponent, shape):
    """A nan exponent would build a graph from nan weights, and one at or
    below 0 fail inside numpy's pareto draw: every recipe rejects both."""
    config = dict(n_users=50, seed=1, popularity_exponent=exponent) | shape
    with pytest.raises(GraphError, match=r"^popularity_exponent must be > 0$"):
        GraphGenConfig(**config)


# -- CSV I/O -----------------------------------------------------------------


CSV = textwrap.dedent(
    """\
    follower_id,followee_id
    alice,bob
    carol,bob
    alice,carol
    """
)


def test_load_edges_dense_remap():
    g = load_edges(io.StringIO(CSV))
    assert g.n_users == 3
    assert g.external_ids == ("alice", "bob", "carol")
    assert list(followers(g, g.dense_id("bob"))) == sorted(
        [g.dense_id("alice"), g.dense_id("carol")]
    )


def test_load_edges_duplicates_and_self_edges():
    text = "follower_id,followee_id\na,b\na,b\nc,c\n"
    g = load_edges(io.StringIO(text))
    assert g.n_edges == 1
    assert g.self_edges_dropped == 1


def test_load_edges_empty_stream():
    # a prologue with no header record is an empty graph too
    for text in ("", "\n  \n", "# exported 2020-03-10\n\n"):
        g = load_edges(io.StringIO(text))
        assert g.n_users == 0
        assert g.n_edges == 0


def test_load_edges_bad_header():
    with pytest.raises(EdgeParseError) as exc:
        load_edges(io.StringIO("src,dst\na,b\n"))
    assert exc.value.line_no == 1


@pytest.mark.parametrize(
    "text, want",
    [
        ("# c\nsrc,dst\na,b\n", (2, "expected header 'follower_id,followee_id'")),
        ("follower_id,followee_id\na,b\n\nc\n", (4, "malformed edge record ['c']")),
        ("follower_id,followee_id\na,b,c\n", (2, "malformed edge record ['a', 'b', 'c']")),
        ("follower_id,followee_id\n,b\n", (2, "malformed edge record ['', 'b']")),
    ],
)
def test_load_edges_error_text(text, want):
    with pytest.raises(EdgeParseError) as exc:
        load_edges(io.StringIO(text))
    assert (exc.value.line_no, str(exc.value)) == (want[0], f"line {want[0]}: {want[1]}")


def test_load_edges_malformed_record_line_number():
    text = "follower_id,followee_id\na,b\nc\n"
    with pytest.raises(EdgeParseError) as exc:
        load_edges(io.StringIO(text))
    assert exc.value.line_no == 3


def test_malformed_record_counts_physical_lines():
    text = 'follower_id,followee_id\n"a\nb",c\nd\n'
    with pytest.raises(EdgeParseError) as exc:
        load_edges(io.StringIO(text))
    assert exc.value.line_no == 4


def test_load_edges_skips_leading_comments():
    text = "# exported 2020-03-10\n\n# by hand\nfollower_id,followee_id\na,b\n"
    g = load_edges(io.StringIO(text))
    assert g.external_ids == ("a", "b")
    assert edges_of(g) == [(0, 1)]
    with pytest.raises(EdgeParseError) as exc:
        load_edges(io.StringIO("follower_id,followee_id\na,b\n# not a comment here\n"))
    assert exc.value.line_no == 3


def test_bare_carriage_return_is_line_numbered():
    text = "follower_id,followee_id\na,b\ncr\rid,x\n"
    with pytest.raises(EdgeParseError) as exc:
        load_edges(io.StringIO(text))
    assert exc.value.line_no == 3


def test_carriage_return_id_roundtrips(tmp_path):
    g = SocialGraph(3, [(0, 1), (1, 2)], external_ids=["cr\rid", "b", 'q"\rz'])
    path = tmp_path / "edges.csv"
    save_edges(g, path)
    assert path.read_bytes() == b'follower_id,followee_id\n"cr\rid",b\nb,"q""\rz"\n'
    again = load_edges_file(path)
    assert again.external_ids == g.external_ids
    assert edges_of(again) == edges_of(g)


def test_unknown_external_id():
    g = load_edges(io.StringIO(CSV))
    with pytest.raises(GraphError):
        g.dense_id("mallory")


def test_repeated_external_id_is_rejected():
    with pytest.raises(GraphError, match="^repeated user id 'a'$"):
        SocialGraph(3, [(0, 1), (1, 2)], external_ids=["b", "a", "a"])


def test_graph_without_ids_has_its_decimal_dense_ids():
    g = SocialGraph(12, [(0, 11), (3, 2)])
    assert g.external_ids == tuple(str(u) for u in range(12))
    assert [g.dense_id(str(u)) for u in range(12)] == list(range(12))
    # only the digits `str` writes name a user
    odd = ["12", "-1", "-0", "+1", " 1", "1 ", "01", "1_1", "\u0661", "", "x", "1.0"]
    for external in odd:
        with pytest.raises(GraphError, match="unknown user id"):
            g.dense_id(external)


def test_too_many_users_fail_before_any_allocation(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "zeros", allocate)
    monkeypatch.setattr(np, "bincount", allocate)
    with pytest.raises(GraphError, match="n_users"):
        SocialGraph(2**31, [])
    # the largest graph passes the check, up to its first allocation
    with pytest.raises(AssertionError, match="allocated"):
        SocialGraph(2**31 - 1, [])
    # a recipe checks the bound itself, before `generate_graph` allocates
    with pytest.raises(GraphError, match="n_users"):
        GraphGenConfig(n_users=2**31)
    GraphGenConfig(n_users=2**31 - 1, min_degree=0, max_degree=0)


def test_save_load_roundtrip(tmp_path):
    g = load_edges(io.StringIO(CSV))
    path = tmp_path / "edges.csv"
    save_edges(g, path)
    g2 = load_edges_file(path)
    assert g2.external_ids == g.external_ids
    assert edges_of(g2) == edges_of(g)


# -- oracles: the straightforward per-user / per-row implementations ---------


def csr_arrays(g: SocialGraph) -> list[np.ndarray]:
    return [g._follows.indptr, g._follows.indices, g._followers.indptr, g._followers.indices]


def reference_csr(n: int, pairs) -> list[np.ndarray]:
    """Follows and followers CSR arrays of a set of (src, dst) pairs."""
    out = []
    for edges in (sorted(pairs), sorted((b, a) for a, b in pairs)):
        indptr = np.zeros(n + 1, dtype=np.int64)
        for a, _ in edges:
            indptr[a + 1] += 1
        out += [np.cumsum(indptr), np.array([b for _, b in edges], dtype=np.int64)]
    return out


def reference_generate(config: GraphGenConfig):
    """Per-user draw loop: (edge set, users that retried, users left short)."""
    n = config.n_users
    rng = np.random.default_rng(config.seed)
    if config.fixed_degree is not None:
        degrees = np.full(n, config.fixed_degree, dtype=np.int64)
    else:
        hi = n - 1 if config.max_degree is None else config.max_degree
        ks = np.arange(max(config.min_degree, 1), hi + 1, dtype=np.float64)
        if len(ks) == 0:
            degrees = np.zeros(n, dtype=np.int64)
        else:
            w = ks ** (-config.exponent)
            w /= w.sum()
            degrees = rng.choice(ks.astype(np.int64), size=n, p=w)
    pop = rng.pareto(config.popularity_exponent, size=n) + 1.0
    cum = np.cumsum(pop / pop.sum())
    cum[-1] = 1.0
    edges, retried, short = set(), set(), set()
    for u in range(n):
        d = int(min(degrees[u], n - 1))
        if d == 0:
            continue
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < d and attempts < 20:
            need = d - len(chosen)
            for v in np.searchsorted(cum, rng.random(need * 2 + 4)):
                v = int(v)
                if v != u and v not in chosen:
                    chosen.add(v)
                    if len(chosen) == d:
                        break
            attempts += 1
        if attempts > 1:
            retried.add(u)
        if len(chosen) < d:
            short.add(u)
        edges.update((u, v) for v in chosen)
    return edges, retried, short


def assert_csr_equal(g: SocialGraph, expected: list[np.ndarray]) -> None:
    for got, want in zip(csr_arrays(g), expected):
        np.testing.assert_array_equal(got, want)


DENSE = GraphGenConfig(n_users=30, seed=3, fixed_degree=25, popularity_exponent=0.3)


@st.composite
def gen_configs(draw):
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    pop = draw(st.floats(0.2, 2.5))
    if draw(st.booleans()):
        # up to n-1 followees: dense configs exercise the retry path
        return GraphGenConfig(n_users=n, seed=seed, fixed_degree=draw(st.integers(0, n - 1)),
                              popularity_exponent=pop)
    hi = draw(st.integers(0, n - 1))
    return GraphGenConfig(n_users=n, seed=seed, exponent=draw(st.floats(1.1, 3.5)),
                          min_degree=draw(st.integers(0, hi)), max_degree=hi,
                          popularity_exponent=pop)


@given(gen_configs())
@settings(max_examples=150, deadline=None)
def test_generate_matches_per_user_reference(config):
    edges, _, _ = reference_generate(config)
    assert_csr_equal(generate_graph(config), reference_csr(config.n_users, edges))


# cumsum(w / w.sum()) of these weights rounds to 1.0000000000000002 before
# its last entry, so the CDF's forced last 1.0 sits below the entry before it
OVERSHOOTING_WEIGHTS = [0.013737858616478582, 0.43389122434993144, 0.7621971718592196, 0.0]


def popularity_cdf(weights) -> np.ndarray:
    """The CDF `generate_graph` draws followees from, for these weights."""
    w = np.asarray(weights, dtype=np.float64)
    cum = np.cumsum(w / w.sum())
    cum[-1] = 1.0
    return cum


def lookup(cum: np.ndarray, draws: np.ndarray, n_guided: int | None = None) -> np.ndarray:
    """`_lookup` of `draws` through the guide built for `n_guided` draws in
    all (default: these draws alone)."""
    guide = graph_module._guide(cum, len(draws) if n_guided is None else n_guided)
    return graph_module._lookup(cum, guide, draws)


@given(
    # zero and tiny weights repeat CDF entries
    st.lists(st.sampled_from([0.0, 1e-300, 0.1, 1.0]) | st.floats(0, 1e3), min_size=1, max_size=12)
    .filter(any),
    # an integer stands for the CDF entry it indexes, a float for itself
    st.lists(st.integers(0, 11) | st.floats(0, 1, exclude_max=True), max_size=40),
)
@example(weights=[1.0, 0.0, 2.0], picks=[])
@settings(max_examples=200, deadline=None)
def test_lookup_equals_searchsorted(weights, picks):
    cum = popularity_cdf(weights)
    draws = np.array([cum[p % len(cum)] if isinstance(p, int) else p for p in picks], dtype=float)
    draws = draws[draws < 1.0]  # `rng.random` draws in [0, 1)
    np.testing.assert_array_equal(lookup(cum, draws), np.searchsorted(cum, draws))


def test_lookup_past_a_cdf_entry_rounded_over_one():
    cum = popularity_cdf(OVERSHOOTING_WEIGHTS)
    assert cum[-2] > cum[-1] == 1.0
    # the entries below 1.0 themselves, a grid of [0, 1) and its last double
    draws = np.concatenate([cum[:2], np.linspace(0.0, 1.0, 101)[:-1], [np.nextafter(1.0, 0.0)]])
    np.testing.assert_array_equal(lookup(cum, draws), np.searchsorted(cum, draws))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1000, 5000),
    # few draws against thousands of entries give a small guide table
    st.sampled_from([1, 3, 17, 400, 5000, 60000]),
    st.floats(0.2, 1.5),
)
@settings(max_examples=60, deadline=None)
def test_lookup_equals_searchsorted_on_long_heavy_tailed_cdfs(seed, entries, n_draws, shape):
    rng = np.random.default_rng(seed)
    cum = popularity_cdf(rng.pareto(shape, size=entries) + 1.0)
    draws = rng.random(n_draws)
    # CDF entries below 1.0 and the doubles on either side of them
    at = cum[rng.integers(0, entries, size=n_draws // 4 + 1)]
    draws = np.concatenate([draws, at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)])
    draws = draws[draws < 1.0]
    np.testing.assert_array_equal(lookup(cum, draws), np.searchsorted(cum, draws))


@pytest.mark.parametrize("n_draws", [8, 100_000])
def test_lookup_searches_the_draws_left_after_its_steps(n_draws):
    # Pareto 0.2 weights: a few hubs hold the mass, so a bucket of [0, 1)
    # can span more tiny entries than the guide's steps cover
    rng = np.random.default_rng(5)
    cum = popularity_cdf(rng.pareto(0.2, size=4000) + 1.0)
    draws = rng.random(n_draws)
    guide = graph_module._guide(cum, n_draws)
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
        picks = graph_module._lookup(cum, guide, draws)
    assert search.call_count == 1  # the draws left
    np.testing.assert_array_equal(picks, np.searchsorted(cum, draws))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([4, 1000, 4000]),
    st.sampled_from([0.2, 0.5, 1.2]),
    st.integers(1, 3000),
    # the guide is built for the draws of every window of a graph, so for
    # far more draws than one call looks up
    st.integers(1, 2**20),
)
@example(seed=5, entries=4000, shape=0.2, n_draws=3000, extra=2**20)
@settings(max_examples=80, deadline=None)
def test_lookup_through_a_guide_built_for_more_draws(seed, entries, shape, n_draws, extra):
    rng = np.random.default_rng(seed)
    cum = popularity_cdf(rng.pareto(shape, size=entries) + 1.0)
    draws = rng.random(n_draws)
    at = cum[rng.integers(0, entries, size=n_draws // 4 + 1)]
    draws = np.concatenate([draws, at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)])
    draws = draws[draws < 1.0]
    np.testing.assert_array_equal(lookup(cum, draws, len(draws) + extra), np.searchsorted(cum, draws))
    # the CDF rounded over one, its guide built for a graph's draws
    cum = popularity_cdf(OVERSHOOTING_WEIGHTS)
    draws = np.concatenate([cum[:2], np.nextafter(cum[:3], 0.0), draws])
    draws = draws[draws < 1.0]
    np.testing.assert_array_equal(lookup(cum, draws, len(draws) + extra), np.searchsorted(cum, draws))


def reference_first_distinct(n, owner, cand, degrees) -> list[int]:
    """Per owner, in draw order: its first `degrees[owner]` distinct
    candidates other than itself, as sorted keys `owner * n + candidate`."""
    keys = []
    for u in sorted(set(owner)):
        seen: list[int] = []
        for o, c in zip(owner, cand):
            if o == u and c != u and c not in seen:
                seen.append(c)
        keys += [u * n + c for c in seen[: degrees[u]]]
    return sorted(keys)


@st.composite
def owner_draws(draw):
    n = draw(st.integers(1, 40))
    degrees = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    owner = sorted(draw(st.lists(st.integers(0, n - 1), max_size=80)))
    # a narrow candidate range repeats candidates; `st.just(u)` is a self-candidate
    hi = draw(st.integers(0, n - 1))
    cand = [draw(st.integers(0, hi) | st.just(u)) for u in owner]
    return n, owner, cand, degrees


@given(owner_draws())
@example((1, [], [], [0]))
# owner 0 draws only itself, owner 1 one distinct candidate for degree 2,
# owner 2 (degree 0) one it may not take
@example((3, [0, 0, 0, 1, 1, 2], [0, 0, 0, 2, 2, 1], [2, 2, 0]))
@settings(max_examples=300, deadline=None)
def test_first_distinct_matches_per_owner_reference(case):
    n, owner, cand, degrees = case
    got = graph_module._first_distinct(
        n, np.array(owner, dtype=np.int64), np.array(cand, dtype=np.int64), np.array(degrees)
    )
    assert got.tolist() == reference_first_distinct(n, owner, cand, degrees)


def test_first_distinct_refuses_keys_past_int64():
    owner = np.zeros(4, dtype=np.int64)  # 4 draws: 3 position bits
    with pytest.raises(GraphError, match="64 bits"):
        graph_module._first_distinct(2**61, owner, owner + 1, np.array([4]))


def test_generate_dense_config_retries_every_user():
    edges, retried, short = reference_generate(DENSE)
    # every user retries and stays short after the 20-attempt cap
    assert retried == short == set(range(30))
    g = generate_graph(DENSE)
    assert g.n_edges == len(edges) == 252
    assert_csr_equal(g, reference_csr(30, edges))


def test_generate_hub_config_matches_reference():
    """Popularity on a few hubs: every user retries, and nearly all stay
    short after their further rounds."""
    config = GraphGenConfig(n_users=500, seed=5, min_degree=3, popularity_exponent=0.2)
    edges, retried, short = reference_generate(config)
    assert len(retried) == 500 and len(short) == 490
    assert_csr_equal(generate_graph(config), reference_csr(500, edges))


# `generate_graph` windows capped at one, two and three draws (so one user
# each, its first round above the cap) and at 64 draws
WINDOW_DRAWS = [1, 2, 3, 64]


@pytest.mark.parametrize("draws", WINDOW_DRAWS)
@given(gen_configs())
@example(DENSE)
@settings(max_examples=40, deadline=None)
def test_generate_in_capped_windows_matches_reference(draws, config):
    edges, _, _ = reference_generate(config)
    with mock.patch.object(graph_module, "_WINDOW_DRAWS", draws):
        g = generate_graph(config)
    assert_csr_equal(g, reference_csr(config.n_users, edges))


@pytest.fixture(scope="module")
def replica_3000() -> SocialGraph:
    return build_replica(ReplicaConfig(n_users=3000, seed=1)).graph


# and the windows of 2**18 draws `generate_graph` once took
@pytest.mark.parametrize("draws", [*WINDOW_DRAWS, 1 << 18])
def test_capped_windows_keep_the_replica_graph(replica_3000, draws):
    with mock.patch.object(graph_module, "_WINDOW_DRAWS", draws):
        g = build_replica(ReplicaConfig(n_users=3000, seed=1)).graph
    assert_csr_equal(g, csr_arrays(replica_3000))


def test_graph_build_and_save_memory_is_bounded(tmp_path):
    """Criterion 5's 5e4-user replica graph (821,002 edges): the build's
    draws are held a window at a time and the CSV is written a chunk at a
    time, so neither holds the whole graph's draws or CSV bytes; the graph
    itself keeps two int32 neighbor arrays (6.6 MB) and no id strings."""
    config = GraphGenConfig(
        n_users=50_000,
        exponent=replica_module.GRAPH_EXPONENT,
        min_degree=6,
        max_degree=replica_module.GRAPH_MAX_DEGREE,
        popularity_exponent=replica_module.GRAPH_POPULARITY_EXPONENT,
        seed=derive_seed(ReplicaConfig().seed, "replica-graph"),
    )
    tracemalloc.start()
    try:
        g = generate_graph(config)
        generate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        save_edges(g, tmp_path / "edges.csv")
        save_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.n_edges == 821_002
    assert generate_peak < 45e6
    assert base < 10e6
    assert save_peak < 40e6


def test_graph_build_and_sidecar_load_hold_no_int64_edge_columns(tmp_path):
    """Criterion 5's 5e4-user replica graph (821,002 edges): `_assign`
    turns the edge keys (6.6 MB) into the sorted transpose in place, so a
    build holds them beside the two int32 neighbor arrays and no other
    edge-sized array, and a sidecar load holds the ids besides."""
    config = GraphGenConfig(
        n_users=50_000,
        exponent=replica_module.GRAPH_EXPONENT,
        min_degree=6,
        max_degree=replica_module.GRAPH_MAX_DEGREE,
        popularity_exponent=replica_module.GRAPH_POPULARITY_EXPONENT,
        seed=derive_seed(ReplicaConfig().seed, "replica-graph"),
    )
    tracemalloc.start()
    try:
        g = generate_graph(config)
        generate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_edges == 821_002
    save_edges(g, tmp_path / "edges.csv")
    del g
    tracemalloc.start()
    try:
        load_from_sidecar(tmp_path / "edges.csv")
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert generate_peak < 22e6
    assert load_peak < 26e6


def test_ids_past_int32_products_save_reload_and_reach(tmp_path):
    """A 70,000-user graph, every user on a ring, plus edges between ids
    near 0 and ids >= 65,536: a follower index times n and a reach key
    exceed int32, so each must be computed in int64."""
    n = 70_000
    ring = [(u, (u + 1) % n) for u in range(n)]
    cross = [(0, 69_999), (65_536, 1), (69_999, 65_536), (3, 65_537), (65_537, 2), (68_000, 0)]
    g = SocialGraph(n, ring + cross)
    path = tmp_path / "edges.csv"
    save_edges(g, path)
    from_sidecar = load_from_sidecar(path)
    sidecar_of(path).unlink()
    parsed = parse_file(path)
    assert_csr_equal(from_sidecar, csr_arrays(parsed))
    assert from_sidecar.external_ids == parsed.external_ids
    # actor keys `group * n + user`, up to 4.9e9
    rng = np.random.default_rng(5)
    users = np.array([0, 1, 2, 3, 65_536, 65_537, 68_000, 69_999] * 3, dtype=np.int64)
    keys = rng.integers(0, n, len(users)) * n + users
    for dtype in (np.uint8, np.uint64):
        masks = rng.integers(1, np.iinfo(dtype).max, len(keys), dtype=dtype, endpoint=True)
        want: dict[int, int] = {}
        for key, mask in zip(keys.tolist(), masks.tolist()):
            group, u = divmod(key, n)
            for v in [u, *followers(g, u).tolist()]:
                want[group * n + v] = want.get(group * n + v, 0) | mask
        got_keys, got_masks = _lane_reach(g, keys, masks)
        assert got_keys.tolist() == sorted(want)
        assert got_masks.tolist() == [want[k] for k in sorted(want)]


def _sha256_of_saved(g: SocialGraph, tmp_path) -> str:
    path = tmp_path / "edges.csv"
    save_edges(g, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_saved_graphs_pinned(tmp_path):
    replica = build_replica(ReplicaConfig(n_users=3000, seed=1)).graph
    assert replica.n_edges == 25_468
    assert _sha256_of_saved(replica, tmp_path) == (
        "8d7f74ade1b0c9915857bd8dca99483c3383f1b23d1f8e158ce32b93433e35f9"
    )
    assert_same_graph(load_from_sidecar(tmp_path / "edges.csv"), parse_file(tmp_path / "edges.csv"))
    assert _sha256_of_saved(generate_graph(DENSE), tmp_path) == (
        "e6e6410d697f9a54b65582438547a46ee12cdbb25f8c01e7e2bfac2690cc6452"
    )
    assert_same_graph(load_from_sidecar(tmp_path / "edges.csv"), parse_file(tmp_path / "edges.csv"))



# the graphs the benchmark workloads build: the 2e4-user replica of
# `pipeline-2e4` and criterion 5's 5e4-user replica of `sweep-5e4`
@pytest.mark.parametrize(
    "config, n_edges, indptr_sha, indices_sha",
    [
        (
            ReplicaConfig(n_users=20_000),
            171_922,
            "057bf7cf6ecdbcfd8bb9bfcfaf6e874cd7fd97e84069999e5e1398f5c0fa44ec",
            "7789a9dfe9dfb553310ae13a0002c696c555d9c33991d5a9cc11d8e566aaba6e",
        ),
        (
            ReplicaConfig(
                n_users=50_000,
                min_degree=6,
                misinfo_day_fraction=0.0,
                misinfo_author_ranks=(0.0, 0.003),
            ),
            821_002,
            "2103440fcaa97b10aeccbaff5e26d3ff59f64ac91192fc5b4599a28dc963067e",
            "1ddcf0bfe0f1bacbff24a5f71eaf7f3fb0a89c20c150ab730ad536c2efc3b949",
        ),
    ],
)
def test_replica_graphs_pinned(config, n_edges, indptr_sha, indices_sha):
    follows = build_replica(config).graph._follows
    assert len(follows.indices) == n_edges
    assert hashlib.sha256(follows.indptr.tobytes()).hexdigest() == indptr_sha
    assert hashlib.sha256(follows.indices.astype(np.int64).tobytes()).hexdigest() == indices_sha

def reference_load(text: str):
    """Row-by-row loader: (external ids, edge set, self-edges dropped).

    Lines are split as a file opened with newline="" splits them; blank and
    `#` comment lines before the header are skipped, and an error names the
    physical line its record starts on."""
    lines = io.StringIO(text, newline="").readlines()
    skip = 0
    while skip < len(lines) and (not lines[skip].strip() or lines[skip].lstrip().startswith("#")):
        skip += 1
    ids: dict[str, int] = {}
    pairs: set[tuple[int, int]] = set()
    self_edges = 0
    saw_header = False
    reader = csv.reader(lines[skip:])
    line_no = skip
    try:
        for row in reader:
            start, line_no = line_no + 1, skip + reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if not saw_header:
                saw_header = True
                if [c.strip() for c in row] == ["follower_id", "followee_id"]:
                    continue
                raise EdgeParseError(start, "bad header")
            if len(row) != 2 or not row[0].strip() or not row[1].strip():
                raise EdgeParseError(start, "malformed")
            a, b = row[0].strip(), row[1].strip()
            if a == b:
                self_edges += 1
                continue
            pairs.add((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))))
    except csv.Error:
        raise EdgeParseError(skip + reader.line_num, "rejected by csv") from None
    return tuple(ids), pairs, self_edges


def csv_row(fields: list[str]) -> str:
    """One csv.writer row ending in a newline, quoting a field that holds a
    carriage return too (as csv.writer itself does from Python 3.13 on)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def reference_save(g: SocialGraph) -> bytes:
    rows = [csv_row(["follower_id", "followee_id"])]
    rows += [csv_row([g.external_ids[u], g.external_ids[v]]) for u, v in edges_of(g)]
    return "".join(rows).encode("utf-8")


EDGE_IDS = st.sampled_from(
    ["a", "b", "c", "alice", "42", "a,b", 'x"y', "new\nline", "cr\rid", "é", "日本"]
)
PADDING = st.sampled_from(["", " ", "  \t"])
# malformed records; a string is written as is (a bare carriage return)
BAD_ROWS = st.sampled_from(
    [["a"], ["a", "b", "c"], ["a", " "], ["", "b"], "cr\rid,b\n", "a,cr\rid\n"]
)


# blank and comment lines before the header; a quote in a comment opens no field
PROLOGUE = st.lists(st.sampled_from(["\n", " \n", "# note\n", "  #a,\"b\n", "#\r\n"]), max_size=3)


@st.composite
def edge_csvs(draw, malformed=False):
    """Edge CSV text with a prologue, duplicates, self-edges, blank lines
    and quoting."""
    buf = io.StringIO()
    buf.write("".join(draw(PROLOGUE)))
    buf.write(csv_row([" follower_id", "followee_id "] if draw(st.booleans()) else EDGE_HEADER))
    rows = draw(st.lists(st.tuples(EDGE_IDS, EDGE_IDS, PADDING, st.integers(0, 5)), max_size=30))
    bad_at = draw(st.integers(0, len(rows))) if malformed else -1

    def write_bad():
        bad = draw(BAD_ROWS)
        buf.write(bad if isinstance(bad, str) else csv_row(bad))

    for i, (a, b, pad, blank) in enumerate(rows):
        if i == bad_at:
            write_bad()
        if blank == 0:
            buf.write(draw(st.sampled_from(["\n", "   \n"])))
        buf.write(csv_row([pad + a, b + pad]))
    if bad_at == len(rows):
        write_bad()
    return buf.getvalue()


@given(edge_csvs())
@settings(max_examples=150, deadline=None)
def test_load_edges_matches_reference_loader(text):
    ids, pairs, self_edges = reference_load(text)
    g = load_edges(io.StringIO(text, newline=""))
    assert g.external_ids == ids
    assert g.self_edges_dropped == self_edges
    assert_csr_equal(g, reference_csr(len(ids), pairs))


@given(edge_csvs(malformed=True))
@settings(max_examples=100, deadline=None)
def test_load_edges_malformed_line_matches_reference(text):
    with pytest.raises(EdgeParseError) as want:
        reference_load(text)
    with pytest.raises(EdgeParseError) as got:
        load_edges(io.StringIO(text, newline=""))
    assert got.value.line_no == want.value.line_no


# `save_edges` gathers this many rows at a time: chunks of one, two and
# three rows, and the default
SAVE_ROWS = [1, 2, 3, graph_module._SAVE_ROWS]


def save_in_chunks(g: SocialGraph, path, rows: int) -> None:
    with mock.patch.object(graph_module, "_SAVE_ROWS", rows):
        save_edges(g, path)


@pytest.mark.parametrize("rows", SAVE_ROWS)
@given(edge_csvs())
@settings(max_examples=100, deadline=None)
def test_save_edges_matches_csv_writer(tmp_path_factory, rows, text):
    g = load_edges(io.StringIO(text))
    path = tmp_path_factory.mktemp("save") / "edges.csv"
    save_in_chunks(g, path, rows)
    assert path.read_bytes() == reference_save(g)
    # reloading renumbers ids by first appearance; the named edges survive
    again = load_edges_file(path)
    assert sorted(again.external_ids) == sorted(g.external_ids)
    assert named_edges(again) == named_edges(g)


@pytest.mark.parametrize("rows", SAVE_ROWS)
def test_save_edges_writes_empty_and_padded_ids_as_csv_writer(tmp_path, rows):
    """No loaded graph has an empty id or one with surrounding whitespace:
    they are the shortest and the untrimmed fields of the gather.  They do
    not reload as themselves, so no sidecar is saved for them."""
    ids = ["", " pad\t", "a", "日本", "é,"]
    g = SocialGraph(6, [(0, 1), (1, 0), (2, 0), (2, 3), (3, 1), (4, 0), (0, 4)], ids + ["lone"])
    path = tmp_path / "edges.csv"
    save_in_chunks(g, path, rows)
    assert path.read_bytes() == reference_save(g)
    assert not sidecar_of(path).exists()


def named_edges(g: SocialGraph) -> set[tuple[str, str]]:
    return {(g.external_ids[u], g.external_ids[v]) for u, v in edges_of(g)}


# -- the `.csr` sidecar ------------------------------------------------------


def assert_same_graph(got: SocialGraph, want: SocialGraph) -> None:
    assert got.n_users == want.n_users
    assert got.external_ids == want.external_ids
    assert got.self_edges_dropped == want.self_edges_dropped
    assert_csr_equal(got, csr_arrays(want))


def parse_file(path) -> SocialGraph:
    """The graph `load_edges` parses from the file, no sidecar involved."""
    with open(path, encoding="utf-8", newline="") as fh:
        return load_edges(fh)


def sidecar_of(path):
    return path.with_name(path.name + ".csr")


def load_from_sidecar(path) -> SocialGraph:
    """`load_edges_file`, failing if it parses the CSV."""
    with mock.patch.object(graph_module, "load_edges", side_effect=AssertionError("parsed")):
        return load_edges_file(path)


@given(edge_csvs())
@settings(max_examples=100, deadline=None)
def test_sidecar_graph_equals_parse(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("sidecar") / "edges.csv"
    path.write_bytes(text.encode("utf-8"))
    want = load_edges(io.StringIO(text, newline=""))
    assert_same_graph(load_edges_file(path), want)
    assert sidecar_of(path).exists()
    assert_same_graph(load_from_sidecar(path), want)


# ids that need csv quotes, a comment-like id, non-ASCII ids, and ids that do
# not reload as they are: surrounding whitespace, or empty
SAVE_IDS = st.sampled_from(
    ["a", "b", "42", "a,b", 'x"y', "new\nline", "cr\rid", "#c", "é", "日本", " pad", "tab\t", ""]
)


@given(
    st.lists(SAVE_IDS, min_size=1, max_size=8, unique=True),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
)
@settings(max_examples=150, deadline=None)
def test_saved_sidecar_graph_equals_parse(tmp_path_factory, ids, raw):
    n = len(ids)
    # users without an edge are isolated
    g = SocialGraph(n, [(a % n, b % n) for a, b in raw], external_ids=ids)
    path = tmp_path_factory.mktemp("saved") / "edges.csv"
    save_edges(g, path)
    intact = len(set(ids)) == n and all(x and x == x.strip() for x in ids)
    assert sidecar_of(path).exists() == intact
    load = load_from_sidecar if intact else load_edges_file
    try:
        want = parse_file(path)
    except EdgeParseError as e:  # an empty id on an edge row
        with pytest.raises(EdgeParseError, match=f"^{re.escape(str(e))}$"):
            load(path)
    else:
        assert_same_graph(load(path), want)


@pytest.mark.parametrize(
    "odd", ["nul\0id", "x" * (csv.field_size_limit() + 1)], ids=["nul", "over-field-limit"]
)
def test_ids_the_csv_module_may_reject_get_no_saved_sidecar(tmp_path, odd):
    """A NUL is a csv error before Python 3.11, and an id over the field
    size limit always is one; a load must fail or succeed as the parse does."""
    path = tmp_path / "edges.csv"
    save_edges(SocialGraph(2, [(0, 1)], external_ids=["a", odd]), path)
    assert not sidecar_of(path).exists()
    try:
        want = parse_file(path)
    except EdgeParseError as e:
        with pytest.raises(EdgeParseError, match=f"^{re.escape(str(e))}$"):
            load_edges_file(path)
    else:
        assert_same_graph(load_edges_file(path), want)
    # nor does a parse write one: a NUL would split the sidecar's id blob
    assert not sidecar_of(path).exists()


def test_saved_sidecar_equals_the_one_a_parse_writes(tmp_path):
    g = SocialGraph(6, [(3, 1), (1, 4), (4, 3), (3, 4)], external_ids=list("uvwxyz"))
    path = tmp_path / "edges.csv"
    save_edges(g, path)
    saved = sidecar_of(path).read_bytes()
    save_edges(g, path)
    assert sidecar_of(path).read_bytes() == saved
    sidecar_of(path).unlink()
    load_edges_file(path)
    assert sidecar_of(path).read_bytes() == saved


def test_edited_csv_reparses(tmp_path):
    path = tmp_path / "edges.csv"
    save_edges(load_edges(io.StringIO(CSV)), path)
    load_from_sidecar(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("dave,alice\nerin,erin\n")
    g = load_edges_file(path)
    assert_same_graph(g, parse_file(path))
    assert g.external_ids[-1] == "dave" and g.self_edges_dropped == 1
    # the parse rewrote the sidecar for the new bytes
    assert_same_graph(load_from_sidecar(path), g)


def test_truncated_sidecar_reparses(tmp_path):
    path = tmp_path / "edges.csv"
    save_edges(load_edges(io.StringIO(CSV)), path)
    full = sidecar_of(path).read_bytes()
    for size in (0, 5, len(graph_module._SIDECAR_HEAD) + 32, 200, len(full) // 2, len(full) - 1):
        sidecar_of(path).write_bytes(full[:size])
        assert_same_graph(load_edges_file(path), parse_file(path))
        assert sidecar_of(path).read_bytes() == full


def write_sidecar(path, text: bytes, arrays, head=graph_module._SIDECAR_HEAD) -> None:
    """A sidecar for CSV bytes `text` holding `arrays` in the file format."""
    buf = io.BytesIO()
    buf.write(head + hashlib.sha256(text).digest())
    for a in arrays:
        np.save(buf, np.asarray(a), allow_pickle=False)
    sidecar_of(path).write_bytes(buf.getvalue())


# the sidecar arrays of "alice,bob / carol,bob / alice,carol": meta (users,
# self-edges dropped), edge keys follower * 3 + followee, NUL-separated ids
GOOD_ARRAYS = [[3, 0], [1, 2, 7], np.frombuffer(b"alice\0bob\0carol", dtype=np.uint8)]


# edge keys of that sidecar that do not hold a graph
BAD_KEYS = [
    [2, 1, 7],  # keys not sorted
    [1, 2, 2, 7],  # a repeated key
    [1, 4, 7],  # a self-edge key: bob follows bob
    [1, 2, 9],  # a key past n * n
    [-1, 2, 7],  # a negative key
    np.array([1, 2, 7], dtype=np.int32),  # wrong dtype
]


@pytest.mark.parametrize(
    "index, value",
    [
        (0, [3, 0, 0]),  # meta of the wrong shape
        (0, [3, -1]),  # negative count
        *((1, keys) for keys in BAD_KEYS),
        (2, np.frombuffer(b"alice\0bob", dtype=np.uint8)),  # an id short
        (2, np.frombuffer(b"alice\0bob\0carol\0", dtype=np.uint8)),  # an id over
        (2, np.frombuffer(b"alice\0bob\0alice", dtype=np.uint8)),  # a repeated id
        (2, np.frombuffer(b"alice\0b\xffb\0carol", dtype=np.uint8)),  # not UTF-8
        (2, "alicebobcarol"),  # a string array, not bytes
    ],
)
def test_inconsistent_sidecar_reparses(tmp_path, index, value):
    path = tmp_path / "edges.csv"
    path.write_text(CSV)
    write_sidecar(path, CSV.encode(), GOOD_ARRAYS)
    assert_same_graph(load_from_sidecar(path), load_edges(io.StringIO(CSV)))
    write_sidecar(path, CSV.encode(), GOOD_ARRAYS[:index] + [value] + GOOD_ARRAYS[index + 1 :])
    assert_same_graph(load_edges_file(path), load_edges(io.StringIO(CSV)))


# keys that break the checks only across `_assign`'s slices of 2 keys
BAD_KEYS_ACROSS_SLICES = [
    [1, 5, 2],  # a decrease from one slice to the next
    [1, 2, 2],  # a key repeated in the next slice
    [1, 2, 4],  # a self-edge in the last slice: bob follows bob
]


@pytest.mark.parametrize("keys", BAD_KEYS + BAD_KEYS_ACROSS_SLICES)
def test_inconsistent_sidecar_keys_reparse_across_key_slices(tmp_path, keys):
    with mock.patch.object(graph_module, "_ASSIGN_KEYS", 2):
        test_inconsistent_sidecar_reparses(tmp_path, 1, keys)


def test_key_slices_keep_the_replica_graph(replica_3000, tmp_path):
    """`_assign` reading 3 keys at a time builds, parses and reloads from
    its sidecar the graphs it builds at its default slices."""
    path = tmp_path / "edges.csv"
    save_edges(replica_3000, path)
    want = [load_edges_file(path), parse_file(path)]
    with mock.patch.object(graph_module, "_ASSIGN_KEYS", 3):
        g = build_replica(ReplicaConfig(n_users=3000, seed=1)).graph
        assert_csr_equal(g, csr_arrays(replica_3000))
        assert_same_graph(load_from_sidecar(path), want[0])
        assert_same_graph(parse_file(path), want[1])


def test_empty_graph_sidecar(tmp_path):
    path = tmp_path / "edges.csv"
    save_edges(SocialGraph(0, []), path)
    assert sidecar_of(path).exists()
    assert_same_graph(load_from_sidecar(path), SocialGraph(0, []))


# the same graph in older layouts.  Version 2: meta, edge keys, per-id
# lengths and the ids run together; version 1: meta (users, edges,
# self-edges dropped), the follows and followers CSRs, then as version 2
V2_ARRAYS = [*GOOD_ARRAYS[:2], [5, 3, 5], np.frombuffer(b"alicebobcarol", dtype=np.uint8)]
V1_ARRAYS = [[3, 3, 0], [0, 2, 2, 3], [1, 2, 1], [0, 0, 2, 3], [0, 2, 0], *V2_ARRAYS[2:]]


def test_stale_or_other_version_sidecar_reparses(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(CSV)
    want = load_edges(io.StringIO(CSV))
    write_sidecar(path, b"other bytes", GOOD_ARRAYS)
    assert_same_graph(load_edges_file(path), want)
    for version, arrays in [(1, V1_ARRAYS), (2, V2_ARRAYS)]:
        write_sidecar(path, CSV.encode(), arrays, head=f"infodemic edge csr {version}\n".encode())
        assert_same_graph(load_edges_file(path), want)
        # the parse rewrote it in the current layout
        assert sidecar_of(path).read_bytes().startswith(graph_module._SIDECAR_HEAD)
        assert_same_graph(load_from_sidecar(path), want)


def test_unwritable_directory_still_loads(tmp_path, monkeypatch):
    path = tmp_path / "edges.csv"
    path.write_text(CSV)

    def refuse(*args, **kwargs):
        raise PermissionError("read-only directory")

    # the package creates every file it writes through `_table.open`
    monkeypatch.setattr(table_module, "open", refuse, raising=False)
    for _ in range(2):
        assert_same_graph(load_edges_file(path), load_edges(io.StringIO(CSV)))
    assert not sidecar_of(path).exists()
    assert [p.name for p in tmp_path.iterdir()] == ["edges.csv"]


def test_sidecar_hit_keeps_dropped_self_edges(tmp_path, caplog):
    path = tmp_path / "edges.csv"
    path.write_text("follower_id,followee_id\na,b\nc,c\nd,d\n")
    load_edges_file(path)
    with caplog.at_level("WARNING", logger="infodemic.graph"):
        g = load_from_sidecar(path)
    assert g.self_edges_dropped == 2
    assert "dropped 2 self-follow edge(s)" in caplog.text


def test_sidecar_parse_errors_stay_line_numbered(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("follower_id,followee_id\na,b\nc\n")
    for _ in range(2):
        with pytest.raises(EdgeParseError, match="^line 3: "):
            load_edges_file(path)
    assert not sidecar_of(path).exists()
