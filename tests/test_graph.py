import csv
import hashlib
import io
import re
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodemic import _table as table_module
from infodemic import graph as graph_module
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
    return [(u, int(v)) for u in range(g.n_users) for v in g.follows(u)]


def test_basic_adjacency():
    g = SocialGraph(4, [(0, 1), (2, 1), (1, 3)])
    assert g.n_users == 4
    assert g.n_edges == 3
    assert list(g.follows(0)) == [1]
    assert list(g.followers_array(1)) == [0, 2]
    assert list(g.followers_array(3)) == [1]
    assert list(g.follows(3)) == []


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


def test_query_out_of_range():
    g = SocialGraph(2, [(0, 1)])
    with pytest.raises(GraphError):
        g.follows(2)
    with pytest.raises(GraphError):
        g.followers_array(-1)


def test_degrees_match_edge_list():
    g = SocialGraph(5, [(0, 1), (0, 2), (3, 2), (4, 2), (2, 0)])
    assert list(g.out_degrees()) == [2, 0, 1, 1, 1]
    assert list(g.in_degrees()) == [1, 1, 3, 0, 0]
    assert edges_of(g) == [(0, 1), (0, 2), (2, 0), (3, 2), (4, 2)]


def test_neighbor_arrays_read_only():
    g = SocialGraph(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        g.follows(0)[0] = 9


@given(
    st.integers(2, 10),
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_follows_followers_are_transposes(n, raw):
    edges = [(a % n, b % n) for a, b in raw if a % n != b % n]
    g = SocialGraph(n, edges)
    for u in range(n):
        for v in g.follows(u):
            assert u in g.followers_array(int(v))
        for w in g.followers_array(u):
            assert u in set(int(x) for x in g.follows(int(w)))


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
    deg = g.out_degrees()
    assert deg.min() >= 2
    assert deg.max() <= 9


def test_generate_fixed_degree():
    g = generate_graph(GraphGenConfig(n_users=50, seed=0, fixed_degree=4))
    assert list(g.out_degrees()) == [4] * 50


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
    assert list(g.followers_array(g.dense_id("bob"))) == sorted(
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


def test_generate_dense_config_retries_every_user():
    edges, retried, short = reference_generate(DENSE)
    # every user retries and stays short after the 20-attempt cap
    assert retried == short == set(range(30))
    g = generate_graph(DENSE)
    assert g.n_edges == len(edges) == 252
    assert_csr_equal(g, reference_csr(30, edges))


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


EDGE_IDS = st.sampled_from(["a", "b", "c", "alice", "42", "a,b", 'x"y', "new\nline", "cr\rid"])
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


@given(edge_csvs())
@settings(max_examples=100, deadline=None)
def test_save_edges_matches_csv_writer(tmp_path_factory, text):
    g = load_edges(io.StringIO(text))
    path = tmp_path_factory.mktemp("save") / "edges.csv"
    save_edges(g, path)
    assert path.read_bytes() == reference_save(g)
    # reloading renumbers ids by first appearance; the named edges survive
    again = load_edges_file(path)
    assert sorted(again.external_ids) == sorted(g.external_ids)
    assert named_edges(again) == named_edges(g)


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
    st.lists(SAVE_IDS, min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
)
@settings(max_examples=150, deadline=None)
def test_saved_sidecar_graph_equals_parse(tmp_path_factory, ids, raw):
    n = len(ids)
    # users without an edge are isolated; repeated ids are allowed
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
# self-edges dropped), edge keys follower * 3 + followee, id lengths, ids
GOOD_ARRAYS = [[3, 0], [1, 2, 7], [5, 3, 5], np.frombuffer(b"alicebobcarol", dtype=np.uint8)]


@pytest.mark.parametrize(
    "index, value",
    [
        (0, [3, 0, 0]),  # meta of the wrong shape
        (0, [3, -1]),  # negative count
        (1, [2, 1, 7]),  # keys not sorted
        (1, [1, 2, 2, 7]),  # a repeated key
        (1, [1, 4, 7]),  # a self-edge key: bob follows bob
        (1, [1, 2, 9]),  # a key past n * n
        (1, [-1, 2, 7]),  # a negative key
        (1, np.array([1, 2, 7], dtype=np.int32)),  # wrong dtype
        (2, [5, 3, 4]),  # id lengths not summing to the blob
        (3, np.frombuffer(b"alice\xffbobcaro", dtype=np.uint8)),  # not UTF-8
        (3, "alicebobcarol"),  # a string array, not bytes
    ],
)
def test_inconsistent_sidecar_reparses(tmp_path, index, value):
    path = tmp_path / "edges.csv"
    path.write_text(CSV)
    write_sidecar(path, CSV.encode(), GOOD_ARRAYS)
    assert_same_graph(load_from_sidecar(path), load_edges(io.StringIO(CSV)))
    write_sidecar(path, CSV.encode(), GOOD_ARRAYS[:index] + [value] + GOOD_ARRAYS[index + 1 :])
    assert_same_graph(load_edges_file(path), load_edges(io.StringIO(CSV)))


# the same graph in the version-1 layout: meta (users, edges, self-edges
# dropped), the follows and followers CSRs, id lengths, ids
V1_ARRAYS = [[3, 3, 0], [0, 2, 2, 3], [1, 2, 1], [0, 0, 2, 3], [0, 2, 0], *GOOD_ARRAYS[2:]]


def test_stale_or_other_version_sidecar_reparses(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(CSV)
    want = load_edges(io.StringIO(CSV))
    write_sidecar(path, b"other bytes", GOOD_ARRAYS)
    assert_same_graph(load_edges_file(path), want)
    write_sidecar(path, CSV.encode(), V1_ARRAYS, head=b"infodemic edge csr 1\n")
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
