import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DAY0, NOT_A_VALUE, followers, random_graph, table_with_bad_row
from infodemic.cascade import Cascade, SeedTweet, TweetCategory
from infodemic.exposure import (
    CLASS_CATEGORIES,
    ExposureError,
    ExposureMatrix,
    _code_counts,
    _lane_tally,
    exposure_matrix,
    total_exposures,
)
from infodemic.graph import SocialGraph


def seed(author, cat, day=DAY0, tid=None, seq=0):
    tid = tid or f"{cat.value[:1]}{author}-{seq}"
    return SeedTweet(tweet_id=tid, author=author, category=cat, day=day, seq=seq)


def daily_exposures(graph, cascades, day, **kw):
    """The seven class counts of `day` alone: a one-day `exposure_matrix`."""
    return tuple(exposure_matrix(graph, cascades, (day, day), **kw).counts[0].tolist())


def oracle_daily(graph, cascades, day, *, cumulative=False, include_actors=True):
    """Classify each user independently by scanning every event."""
    per_user = [set() for _ in range(graph.n_users)]

    def mark(actor, cat):
        for f in followers(graph, actor):
            per_user[int(f)].add(cat)
        if include_actors:
            per_user[actor].add(cat)

    for c in cascades:
        if c.seed.day == day or (cumulative and c.seed.day <= day):
            mark(c.seed.author, c.seed.category)
        for user, d, _ in c.events.tolist():
            if d == day.toordinal() or (cumulative and d <= day.toordinal()):
                mark(user, c.seed.category)
    counts = [0] * 7
    for cats in per_user:
        if cats:
            counts[CLASS_CATEGORIES.index(frozenset(cats))] += 1
    return tuple(counts)


def _random_cascades(rng, g):
    out = []
    seq = 0
    for cat in TweetCategory:
        for _ in range(int(rng.integers(0, 3))):
            day = DAY0 + timedelta(days=int(rng.integers(0, 4)))
            s = seed(int(rng.integers(g.n_users)), cat, day=day, tid=f"t{seq}", seq=seq)
            seq += 1
            events = []
            for u in rng.permutation(g.n_users)[: rng.integers(0, 4)]:
                if int(u) == s.author or any(e[0] == int(u) for e in events):
                    continue
                d = day + timedelta(days=int(rng.integers(0, 3)))
                events.append((int(u), d.toordinal(), seq))
                seq += 1
            out.append(Cascade(s, events))
    return out


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("include_actors", [False, True])
def test_daily_exposures_matches_per_user_oracle(cumulative, include_actors):
    rng = np.random.default_rng(7 + cumulative * 2 + include_actors)
    for _ in range(50):
        g = random_graph(rng)
        cascades = _random_cascades(rng, g)
        for d in range(6):
            day = DAY0 + timedelta(days=d)
            got = daily_exposures(
                g, cascades, day, cumulative=cumulative, include_actors=include_actors
            )
            want = oracle_daily(
                g, cascades, day, cumulative=cumulative, include_actors=include_actors
            )
            assert got == want
        # a period that starts after day-0 activity and ends before day-5
        first = DAY0 + timedelta(days=int(rng.integers(1, 4)))
        last = first + timedelta(days=int(rng.integers(0, 5 - (first - DAY0).days)))
        m = exposure_matrix(
            g, cascades, (first, last), cumulative=cumulative, include_actors=include_actors
        )
        assert m.days[0] == first and m.days[-1] == last
        for day, row in zip(m.days, m.counts.tolist()):
            want = oracle_daily(
                g, cascades, day, cumulative=cumulative, include_actors=include_actors
            )
            assert tuple(row) == want


def test_classes_partition_exposed_users():
    # one author per category, shared audience: day counts are disjoint classes
    g = SocialGraph(5, [(3, 0), (3, 1), (3, 2), (4, 0)])
    cascades = [
        Cascade(seed(0, TweetCategory.CORRECTIVE, seq=0), ()),
        Cascade(seed(1, TweetCategory.MISINFORMATION, seq=1), ()),
        Cascade(seed(2, TweetCategory.SOLDOUT, seq=2), ()),
    ]
    d = daily_exposures(g, cascades, DAY0)
    # user 3 sees all three (x7), user 4 and authors 0..2 see corrective only
    # (authors count as viewers of their own tweet), 1 and 2 see their own
    assert d == (2, 1, 1, 0, 0, 0, 1)
    assert sum(d) == 5


def test_no_exposure_outside_event_days():
    g = SocialGraph(2, [(1, 0)])
    cascades = [Cascade(seed(0, TweetCategory.CORRECTIVE), ())]
    later = daily_exposures(g, cascades, DAY0 + timedelta(days=1))
    assert later == (0,) * 7
    cum = daily_exposures(g, cascades, DAY0 + timedelta(days=1), cumulative=True)
    assert cum == (2, 0, 0, 0, 0, 0, 0)


def test_exposure_matrix_and_totals():
    g = SocialGraph(3, [(1, 0), (2, 0)])
    cascades = [
        Cascade(seed(0, TweetCategory.CORRECTIVE, day=DAY0), ()),
        Cascade(seed(0, TweetCategory.MISINFORMATION, day=DAY0 + timedelta(days=1), seq=1), ()),
    ]
    m = exposure_matrix(g, cascades, (DAY0, DAY0 + timedelta(days=2)))
    assert m.counts.shape == (3, 7)
    assert m.counts[0, 0] == 3 and m.counts[1, 1] == 3
    assert list(total_exposures(m)) == [3, 3, 0, 0, 0, 0, 0]
    assert tuple(m.counts[2]) == (0,) * 7


def test_exposure_matrix_validation():
    with pytest.raises(ExposureError):
        ExposureMatrix((DAY0, DAY0 + timedelta(days=2)), np.zeros((2, 7), dtype=int))
    with pytest.raises(ExposureError):
        ExposureMatrix((DAY0,), np.zeros((1, 6), dtype=int))
    with pytest.raises(ExposureError):
        ExposureMatrix((date.max, date(2020, 1, 1)), np.zeros((2, 7), dtype=int))
    g = SocialGraph(1, [])
    with pytest.raises(ExposureError):
        exposure_matrix(g, [], (DAY0, DAY0 - timedelta(days=1)))


def test_matrix_csv_roundtrip(tmp_path):
    days = tuple(DAY0 + timedelta(days=i) for i in range(3))
    counts = np.arange(21).reshape(3, 7)
    m = ExposureMatrix(days, counts)
    path = tmp_path / "exposure.csv"
    m.to_csv(path, header_comments=["generated for test"])
    text = path.read_text()
    assert text.startswith("# generated for test\n")
    back = ExposureMatrix.from_csv(io.StringIO(text))
    assert back.days == days
    assert np.array_equal(back.counts, counts)


def test_matrix_csv_rejects_garbage():
    with pytest.raises(ExposureError):
        ExposureMatrix.from_csv(io.StringIO("nope\n"))
    bad_row = "day,x1,x2,x3,x4,x5,x6,x7\n2020-02-21,1,2\n"
    with pytest.raises(ExposureError):
        ExposureMatrix.from_csv(io.StringIO(bad_row))


@pytest.mark.parametrize(
    "text, line, what",
    [
        ("", 1, "expected header"),
        ("day,x1,x2,x3,x4,x5,x6,x7\n2020-02-21,1,2,3,4,5,6,7\n2020-02-22,1,2,3,4,5,6,1.5\n",
         3, "invalid literal"),
        ("day,x1,x2,x3,x4,x5,x6,x7\nFeb 21,1,2,3,4,5,6,7\n", 2, "isoformat"),
        # `int` takes these: digit-group `_`, Arabic-Indic and fullwidth digits
        ("day,x1,x2,x3,x4,x5,x6,x7\n2020-02-21,1,2,3,4,5,6,7\n2020-02-22,1_0,0,0,0,0,0,0\n",
         3, "'1_0' is not ASCII"),
        ("day,x1,x2,x3,x4,x5,x6,x7\n2020-02-21,1,2,3,4,5,6,7\n2020-02-22,0,0,0,0,0,0,١٢\n",
         3, "not ASCII decimal"),
        ("day,x1,x2,x3,x4,x5,x6,x7\n2020-02-21,1,2,3,4,５,6,7\n", 2, "not ASCII decimal"),
        ("day,x1,x2,x3,x4,x5,x6,x7\n2020-02-20,0,0,0,0,0,0,0\n2020-02-21,-5,0,0,0,0,0,0\n",
         3, "negative class count -5"),
        # one past the largest int64
        ("day,x1,x2,x3,x4,x5,x6,x7\n2020-02-20,0,0,0,0,0,0,0\n"
         "2020-02-21,0,0,0,0,0,0,9223372036854775808\n",
         3, "class count 9223372036854775808 does not fit in 64 bits"),
        ("day,x1,x2,x3,x4,x5,x6,x7\n2020-02-20,0,0,0,0,0,0,0\n2020-02-22,0,0,0,0,0,0,0\n",
         3, r"days must be contiguous and increasing \(2020-02-22 after 2020-02-20\)"),
        ("day,x1,x2,x3,x4,x5,x6,x7\n2020-02-20,0,0,0,0,0,0,0\n\n2020-02-20,0,0,0,0,0,0,0\n",
         4, "contiguous and increasing"),
    ],
)
def test_matrix_csv_errors_are_line_numbered(text, line, what):
    with pytest.raises(ExposureError, match=f"^line {line}: .*{what}"):
        ExposureMatrix.from_csv(io.StringIO(text))


@st.composite
def exposure_matrices(draw):
    start = draw(st.dates())
    n = draw(st.integers(0, min(8, (date.max - start).days + 1)))
    counts = draw(st.lists(st.integers(0, 2**63 - 1), min_size=7 * n, max_size=7 * n))
    days = tuple(start + timedelta(days=i) for i in range(n))
    return ExposureMatrix(days, np.array(counts, dtype=np.int64).reshape(n, 7))


@given(exposure_matrices())
@settings(max_examples=100, deadline=None)
def test_matrix_csv_roundtrip_any_counts(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("exposure") / "exposure.csv"
    m.to_csv(path, header_comments=["generated"])
    with open(path, encoding="utf-8", newline="") as fh:
        back = ExposureMatrix.from_csv(fh)
    assert back.days == m.days
    assert np.array_equal(back.counts, m.counts)


DAY = "2020-02-21"
BAD_EXPOSURE_ROW = st.one_of(
    st.integers(1, 12).filter(lambda k: k != 8).map(lambda k: ",".join([DAY] + ["1"] * (k - 1))),
    NOT_A_VALUE.map(lambda t: t + ",1,2,3,4,5,6,7"),
    st.tuples(st.integers(0, 6), st.one_of(NOT_A_VALUE, st.just("1.5"))).map(
        lambda c: ",".join([DAY] + ["1"] * c[0] + [c[1]] + ["1"] * (6 - c[0]))
    ),
    st.tuples(st.integers(0, 6), st.integers(max_value=-1)).map(
        lambda c: ",".join([DAY] + ["1"] * c[0] + [str(c[1])] + ["1"] * (6 - c[0]))
    ),
)


@given(table_with_bad_row(
    "day,x1,x2,x3,x4,x5,x6,x7",
    ["2020-02-19,0,1,2,3,4,5,6", "2020-02-20,6,5,4,3,2,1,0"],
    BAD_EXPOSURE_ROW,
))
def test_matrix_csv_bad_row_fails_at_its_line(case):
    text, line = case
    with pytest.raises(ExposureError, match=f"^line {line}: "):
        ExposureMatrix.from_csv(io.StringIO(text))


@st.composite
def lane_tally_cases(draw):
    """A (days, users) category code, a category bit, sorted distinct flat
    keys at which the code lacks the bit, a 64-bit lane mask per key, and
    whether every key holds the same mask."""
    days, users = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, 7), min_size=days * users, max_size=days * users)
    code = np.array(draw(cells), dtype=np.uint8).reshape(days, users)
    bit = draw(st.sampled_from([1, 2, 4]))
    keys = np.array(sorted(draw(st.sets(st.integers(0, days * users - 1)))), dtype=np.int64)
    code.reshape(-1)[keys] &= np.uint8(7 - bit)
    equal = draw(st.booleans())
    n_masks = min(len(keys), 1) if equal else len(keys)
    masks = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=n_masks, max_size=n_masks))
    return code, bit, keys, masks * (len(keys) if equal else 1), equal


@given(lane_tally_cases())
@settings(max_examples=50, deadline=None)
def test_lane_tally_counts_each_lane_as_its_own_code(case):
    code, bit, keys, masks, equal = case
    want = []
    for lane in range(64):
        lane_code = code.copy()
        lane_code.reshape(-1)[keys[[m >> lane & 1 == 1 for m in masks]]] |= bit
        want.append(_code_counts(lane_code))
    # every lane count, in the narrowest dtype that holds it, whose bits
    # above the lanes must not count; equal masks also as a broadcast view
    for lanes in range(1, 65):
        dtype = np.min_scalar_type((1 << lanes) - 1)
        narrow = np.array([m & np.iinfo(dtype).max for m in masks], dtype=dtype)
        if equal:
            narrow = np.broadcast_to(narrow[:1], keys.shape)
        got = _lane_tally(code, _code_counts(code), keys, narrow, bit, lanes)
        np.testing.assert_array_equal(got, want[:lanes])
