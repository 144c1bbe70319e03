"""Shared fixtures: a small deterministic synthetic dataset."""

import os
from datetime import date

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from infodemic.cascade import Cascade, CascadeError, _prune
from infodemic.graph import SocialGraph, GraphGenConfig, generate_graph
from infodemic.replica import ReplicaConfig, build_replica

# In CI (GitHub Actions sets CI), a failing property prints the
# `@reproduce_failure` blob that replays it locally.  The profile replaces
# hypothesis' own "ci" one, so example counts, deadlines and random draws
# stay those of a local run.
settings.register_profile("ci", parent=settings.get_profile("default"), print_blob=True)
if "CI" in os.environ:
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_replica():
    """Synthetic dataset small enough for fast experiment tests."""
    return build_replica(ReplicaConfig(n_users=3000, seed=1))


@pytest.fixture(scope="session")
def medium_graph():
    return generate_graph(GraphGenConfig(n_users=500, seed=7, min_degree=2))


def random_graph(rng: np.random.Generator, max_nodes: int = 12) -> SocialGraph:
    """Small random digraph for exhaustive-oracle comparisons."""
    n = int(rng.integers(2, max_nodes + 1))
    density = rng.uniform(0.05, 0.5)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    ]
    return SocialGraph(n, edges)


def followees(g: SocialGraph, u: int) -> np.ndarray:
    """Users that u follows, sorted: row u of the follows CSR."""
    return g._follows.indices[g._follows.indptr[u] : g._follows.indptr[u + 1]]


def followers(g: SocialGraph, u: int) -> np.ndarray:
    """u's followers, sorted: row u of the followers CSR."""
    return g._followers.indices[g._followers.indptr[u] : g._followers.indptr[u + 1]]


def prune(g: SocialGraph, c: Cascade, keep) -> Cascade:
    """The one cascade `c` pruned to the retweeters in `keep`, a
    `CascadeError` if one of them is not its retweeter."""
    keep = np.asarray(list(keep), dtype=np.int64)
    if extras := sorted(set(keep.tolist()) - set(c.retweeters.tolist())):
        raise CascadeError(f"keep contains non-retweeters: {extras[:5]}")
    want = np.isin(c.retweeters, keep)
    return Cascade(c.seed, c.events[_prune(g, [c], want[:, None])[:, 0]])


DAY0 = date(2020, 2, 21)

# field text that is neither a number nor an ISO date, and needs no quotes
NOT_A_VALUE = st.text("xyz/: ", min_size=1)


@st.composite
def table_with_bad_row(draw, header: str, good_rows: list[str], bad_row: st.SearchStrategy):
    """(text, line): a table holding `good_rows` and one record drawn from
    `bad_row` among them, after a prologue of comment lines, and the
    physical line of that record."""
    comments = draw(st.integers(0, 2))
    at = draw(st.integers(0, len(good_rows)))
    rows = [*good_rows[:at], draw(bad_row), *good_rows[at:]]
    return "# comment\n" * comments + "".join(r + "\n" for r in [header, *rows]), comments + 2 + at

# Verdict lines collected by the acceptance tests; printed after capture
# ends so they show up in any pytest run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
