import argparse
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from datetime import date

import numpy as np
import pytest

import infodemic
from infodemic.cascade import CascadeError, load_retweets, load_seed_tweets, save_cascades
from infodemic.cli import _period_arg, build_parser, main
from infodemic.counterfactual import sweep, sweep_summary_csv, sweep_trials_csv
from infodemic.exposure import ExposureError, ExposureMatrix, exposure_matrix
from infodemic.graph import (
    GraphGenConfig,
    SocialGraph,
    generate_graph,
    load_edges_file,
    save_edges,
)
from infodemic.salesmodel import (
    SalesModelError,
    SalesSeries,
    fit,
    load_model,
    model_from_json,
    save_model,
)

PERIOD = "2020-02-21..2020-03-01"


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-graph -> simulate -> exposure -> fit, all through the CLI."""
    out = tmp_path_factory.mktemp("cli")
    d = str(out)
    assert run("gen-graph", "--n-users", "400", "--min-degree", "2", "--seed", "3", "--out", d) == 0
    graph = os.path.join(d, "edges.csv")
    g = load_edges_file(graph)

    # hand-written seed tweets, authors by external id
    tweets_in = os.path.join(d, "seeds.csv")
    rng = np.random.default_rng(0)
    with open(tweets_in, "w") as fh:
        fh.write("tweet_id,author_id,category,day\n")
        for i in range(6):
            a = g.external_ids[int(rng.integers(g.n_users))]
            fh.write(f"c{i},{a},corrective,2020-02-2{1 + i % 5}\n")
        for i in range(2):
            a = g.external_ids[int(rng.integers(g.n_users))]
            fh.write(f"m{i},{a},misinformation,2020-02-2{6 + i}\n")
        a = g.external_ids[int(rng.integers(g.n_users))]
        fh.write(f"s0,{a},soldout,2020-02-23\n")

    assert run(
        "simulate", "--graph", graph, "--tweets", tweets_in, "--period", PERIOD,
        "--corrective-rate", "0.3", "--misinfo-rate", "0.2", "--soldout-rate", "0.2",
        "--seed", "1", "--out", d,
    ) == 0
    tweets, retweets = os.path.join(d, "tweets.csv"), os.path.join(d, "retweets.csv")
    assert run(
        "exposure", "--graph", graph, "--tweets", tweets, "--retweets", retweets,
        "--period", PERIOD, "--out", d,
    ) == 0

    # synthetic sales driven by the exposure counts so the fit is meaningful
    with open(os.path.join(d, "exposure.csv")) as fh:
        matrix = ExposureMatrix.from_csv(fh)
    impacts = np.array([2e-4, 5e-3, 8e-4, 2e-3, 9e-4, 1e-4, 6e-4])
    vals = 1.0 + matrix.counts @ impacts + np.random.default_rng(1).normal(0, 1e-3, len(matrix.days))
    sales = os.path.join(d, "sales.csv")
    SalesSeries(matrix.days, vals).to_csv(sales)

    assert run(
        "fit", "--graph", graph, "--tweets", tweets, "--retweets", retweets,
        "--sales", sales, "--period", PERIOD, "--k", "4", "--out", d,
    ) == 0
    return d


def test_pipeline_outputs_exist(pipeline):
    for name in ("edges.csv", "tweets.csv", "retweets.csv", "exposure.csv",
                 "model.json", "diagnostics.csv"):
        assert os.path.exists(os.path.join(pipeline, name)), name


def test_exposure_output_embeds_config(pipeline):
    with open(os.path.join(pipeline, "exposure.csv")) as fh:
        head = [line for line in fh if line.startswith("#")]
    assert head[0].startswith("# infodemic ")
    assert any(line.startswith("# period=") for line in head)


def test_fit_output_parses(pipeline):
    model = load_model(os.path.join(pipeline, "model.json"))
    assert model.k == 4
    assert model.diagnostics.r_squared > 0.5
    with open(os.path.join(pipeline, "diagnostics.csv")) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    assert lines[0].strip() == "term,coefficient,stderr,t_value,p_value"
    assert any(l.startswith("r_squared,") for l in lines)


def test_impacts_command(pipeline, tmp_path):
    d = str(tmp_path)
    code = run(
        "impacts", "--model", os.path.join(pipeline, "model.json"),
        "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--retweets", os.path.join(pipeline, "retweets.csv"),
        "--period", PERIOD, "--out", d,
    )
    assert code == 0
    with open(os.path.join(d, "per_viewer_impacts.csv")) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    assert lines[0].strip() == "class,per_viewer_impact"
    assert len(lines) == 8
    assert os.path.exists(os.path.join(d, "group_impacts.csv"))


def test_whatif_command(pipeline, tmp_path):
    d = str(tmp_path)
    code = run(
        "whatif", "--model", os.path.join(pipeline, "model.json"),
        "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--retweets", os.path.join(pipeline, "retweets.csv"),
        "--period", PERIOD, "--retention", "0.5", "--trials", "2", "--out", d,
    )
    assert code == 0
    with open(os.path.join(d, "whatif.csv")) as fh:
        lines = [l.strip() for l in fh if not l.startswith("#")]
    assert lines[0] == "scenario,trial,sum_sales_index,reduction_vs_baseline"
    scenarios = {l.split(",")[0] for l in lines[1:]}
    assert scenarios == {"retention=0.5", "guideline"}


def test_whatif_default_retention_levels(pipeline, tmp_path):
    """Full and zero retention do not depend on the keep draw: every
    full-retention trial equals the baseline, and every zero-retention
    trial has the same index sum."""
    d = str(tmp_path)
    code = run(
        "whatif", "--model", os.path.join(pipeline, "model.json"),
        "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--retweets", os.path.join(pipeline, "retweets.csv"),
        "--period", PERIOD, "--trials", "3", "--out", d,
    )
    assert code == 0
    with open(os.path.join(d, "whatif.csv")) as fh:
        rows = [l.strip().split(",") for l in fh if not l.startswith("#")][1:]
    full = [float(r[3]) for r in rows if r[0] == "retention=1"]
    zero = {float(r[2]) for r in rows if r[0] == "retention=0"}
    assert full == [0.0, 0.0, 0.0]
    assert len(zero) == 1
    assert len({r[0] for r in rows}) == 7  # six retention levels and the guideline


# --seed -> sha256 of whatif.csv at the default retention levels and
# --trials 3; paths are relative, so the `#` header is the same in every run
WHATIF_DIGESTS = {
    1: "4e6e63eee25be39b181ae010e7429f4ef10aab481a6c07451c1550cd8a355bd2",
    2: "44809636103abed092536822f8c771b72cdb6bdd52917b454b80a18dca1d82f6",
    3: "ce65184e12b7b5c24854cb921103987cf772ce39fb3ea5d2bbdd2a58e1b4df40",
}


@pytest.mark.parametrize("seed", sorted(WHATIF_DIGESTS))
def test_whatif_pinned(pipeline, tmp_path, monkeypatch, seed):
    for name in ("edges.csv", "tweets.csv", "retweets.csv", "model.json"):
        shutil.copy(os.path.join(pipeline, name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert run(
        "whatif", "--model", "model.json", "--graph", "edges.csv", "--tweets", "tweets.csv",
        "--retweets", "retweets.csv", "--period", PERIOD, "--trials", "3", "--seed", str(seed),
    ) == 0
    got = hashlib.sha256((tmp_path / "whatif.csv").read_bytes()).hexdigest()
    assert got == WHATIF_DIGESTS[seed]


# --seed -> sha256 of (sweep_trials.csv, sweep_summary.csv) of the default
# 6 x 7 grid with --trials 2 on the 3000-user replica; paths are relative,
# so the `#` header is the same in every run
SWEEP_DIGESTS = {
    1: ("a8fec16a6ad9a2d5b5718566b049570e046ab890d443e92f15c9f7fbb79e620a",
        "758101db3b3020020b43f9197220557d3a542a09f570d308fed492c208a7a1d6"),
    2: ("11f62d99c4ed6167fb2bb68b5b156d9f0d8450810ead73342ae2a7d628078ac3",
        "f86a47ea76d7534e632bec4bbf3587c672fc58c65f4d9e21f5df953cd8e6a3f7"),
    3: ("7470a3a20f36655553a65633d8690b19d86f0b5ebc66faf2ec1634e5667f9d43",
        "4a8513750dac0fb3328f3b6fa5fda76f651b0126becb3db13d5ccf931b24e072"),
}


@pytest.fixture(scope="module")
def replica_inputs(small_replica, tmp_path_factory):
    """The 3000-user replica's graph, seed tweets and fitted model as files."""
    r = small_replica
    d = tmp_path_factory.mktemp("replica")
    save_edges(r.graph, d / "edges.csv")
    save_cascades(r.cascades, d / "tweets.csv", d / "retweets.csv", r.graph)
    save_model(fit(r.matrix, r.sales, k=4), d / "model.json")
    start, end = r.config.period
    return d, f"{start}..{end}"


@pytest.mark.parametrize("seed", sorted(SWEEP_DIGESTS))
def test_sweep_pinned(replica_inputs, tmp_path, monkeypatch, seed):
    d, period = replica_inputs
    for name in ("edges.csv", "tweets.csv", "model.json"):
        shutil.copy(d / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert run(
        "sweep", "--model", "model.json", "--graph", "edges.csv", "--tweets", "tweets.csv",
        "--period", period, "--trials", "2", "--seed", str(seed),
    ) == 0
    got = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("sweep_trials.csv", "sweep_summary.csv")
    )
    assert got == SWEEP_DIGESTS[seed]


def test_whatif_takes_retweet_seqs_up_to_the_64_bit_maximum(replica_inputs, tmp_path):
    """Re-simulated misinformation ranks after each day's recorded posts
    whatever their seqs, so shifting every retweet seq up to 2**63 - 1
    leaves the guideline rows as they were."""
    d, period = replica_inputs
    header, *rows = (d / "retweets.csv").read_text().splitlines()
    rows = [r.rsplit(",", 1) for r in rows]
    shift = 2**63 - 1 - max(int(seq) for _, seq in rows)
    shifted = tmp_path / "retweets.csv"
    lines = [header, *(f"{rest},{int(seq) + shift}" for rest, seq in rows)]
    shifted.write_text("".join(f"{line}\n" for line in lines))
    data = []
    for i, retweets in enumerate((d / "retweets.csv", shifted)):
        assert run(
            "whatif", "--model", str(d / "model.json"), "--graph", str(d / "edges.csv"),
            "--tweets", str(d / "tweets.csv"), "--retweets", str(retweets), "--period", period,
            "--trials", "2", "--misinfo-rate", "0.5", "--out", str(tmp_path / str(i)),
        ) == 0
        lines = (tmp_path / str(i) / "whatif.csv").read_text().splitlines()
        data.append([l for l in lines if not l.startswith("#")])
    assert data[1] == data[0]


@pytest.mark.parametrize("retention", ["1.5", "-0.1", "nan"])
def test_whatif_rejects_retention_out_of_range_without_corrective_tweets(
    pipeline, tmp_path, capsys, retention
):
    # the pipeline's dataset without its corrective tweets and their retweets
    paths = {}
    for name in ("tweets.csv", "retweets.csv"):
        with open(os.path.join(pipeline, name)) as fh:
            lines = fh.readlines()
        tweet_col = lines[0].strip().split(",").index("tweet_id")
        kept = [l for l in lines[1:] if not l.split(",")[tweet_col].startswith("c")]
        paths[name] = str(tmp_path / name)
        with open(paths[name], "w") as fh:
            fh.writelines([lines[0], *kept])
    out = tmp_path / "out"
    code = run(
        "whatif", "--model", os.path.join(pipeline, "model.json"),
        "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", paths["tweets.csv"], "--retweets", paths["retweets.csv"],
        "--period", PERIOD, "--retention", retention, "--trials", "1", "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: retention must be in [0, 1]\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["whatif", "sweep"])
@pytest.mark.parametrize("trials", ["0", "-2"])
def test_experiments_reject_fewer_than_one_trial(pipeline, tmp_path, capsys, command, trials):
    code = run(
        command, "--model", os.path.join(pipeline, "model.json"),
        "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        *(["--retweets", os.path.join(pipeline, "retweets.csv")] if command == "whatif" else []),
        "--period", PERIOD, "--trials", trials, "--out", str(tmp_path),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: trials must be >= 1\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags, message", [
    (["--period", "2020-03-01..2020-02-21"], "empty simulation period"),
    (["--misinfo-rate", "nan"], "RT rates must be in [0, 1]"),
    (["--corrective-rate", "1.5"], "RT rates must be in [0, 1]"),
    (["--soldout-rate", "-0.1"], "RT rates must be in [0, 1]"),
])
def test_sweep_rejects_bad_input(pipeline, tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    code = run(
        "sweep", "--model", os.path.join(pipeline, "model.json"),
        "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--period", PERIOD, *flags, "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_rejects_a_seed_author_outside_the_graph(pipeline, tmp_path, capsys):
    tweets = tmp_path / "tweets.csv"
    tweets.write_text("tweet_id,author_id,category,day\nm9,nobody,misinformation,2020-02-22\n")
    out = tmp_path / "out"
    code = run(
        "sweep", "--model", os.path.join(pipeline, "model.json"),
        "--graph", os.path.join(pipeline, "edges.csv"), "--tweets", str(tweets),
        "--period", PERIOD, "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: line 2: unknown user id 'nobody'\n"
    assert not out.exists()


@pytest.mark.parametrize("given", ["graph", "tweets", "retweets", "period"])
def test_impacts_with_part_of_the_dataset_names_the_rest(pipeline, tmp_path, capsys, given):
    dataset = {
        "graph": os.path.join(pipeline, "edges.csv"),
        "tweets": os.path.join(pipeline, "tweets.csv"),
        "retweets": os.path.join(pipeline, "retweets.csv"),
        "period": PERIOD,
    }
    code = run(
        "impacts", "--model", os.path.join(pipeline, "model.json"),
        f"--{given}", dataset[given], "--out", str(tmp_path),
    )
    assert code == 1
    missing = ", ".join(f"--{k}" for k in dataset if k != given)
    assert capsys.readouterr().err == f"error: missing required option(s): {missing}\n"
    assert os.listdir(tmp_path) == []


def test_sweep_command_deterministic(pipeline, tmp_path):
    args = [
        "sweep", "--model", os.path.join(pipeline, "model.json"),
        "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--period", PERIOD, "--misinfo-rate", "0.05",
        "--trials", "2", "--seed", "7",
    ]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(*args, "--out", d1) == 0
    assert run(*args, "--out", d2) == 0

    def data_lines(path):
        with open(path) as fh:
            return [l for l in fh if not l.startswith("#")]

    for name in ("sweep_trials.csv", "sweep_summary.csv"):
        assert data_lines(os.path.join(d1, name)) == data_lines(os.path.join(d2, name))


def test_options_left_out_take_the_library_defaults(pipeline, replica_inputs, tmp_path):
    """gen-graph, exposure, fit and sweep without their optional library
    flags write what the library call writes given no optional keyword."""
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    lib.mkdir()

    def rows(path):
        return [line for line in path.read_text().splitlines() if not line.startswith("#")]

    def load(graph_path, tweets_path, period):
        graph = load_edges_file(graph_path)
        with open(tweets_path, encoding="utf-8", newline="") as fh:
            seeds = load_seed_tweets(fh, graph)
        return graph, seeds, tuple(date.fromisoformat(x) for x in period.split(".."))

    assert run("gen-graph", "--n-users", "300", "--out", str(cli)) == 0
    save_edges(generate_graph(GraphGenConfig(n_users=300)), lib / "edges.csv")
    assert (cli / "edges.csv").read_bytes() == (lib / "edges.csv").read_bytes()

    edges, tweets, retweets, sales = (
        os.path.join(pipeline, f"{n}.csv") for n in ("edges", "tweets", "retweets", "sales")
    )
    dataset = ["--graph", edges, "--tweets", tweets, "--retweets", retweets, "--period", PERIOD]
    assert run("exposure", *dataset, "--out", str(cli)) == 0
    assert run("fit", *dataset, "--sales", sales, "--out", str(cli)) == 0
    graph, seeds, period = load(edges, tweets, PERIOD)
    with open(retweets, encoding="utf-8", newline="") as fh:
        matrix = exposure_matrix(graph, load_retweets(fh, graph, seeds), period)
    matrix.to_csv(lib / "exposure.csv")
    assert rows(cli / "exposure.csv") == rows(lib / "exposure.csv")
    with open(sales, encoding="utf-8", newline="") as fh:
        save_model(fit(matrix, SalesSeries.from_csv(fh)), lib / "model.json")
    assert (cli / "model.json").read_bytes() == (lib / "model.json").read_bytes()

    # the replica has 42 sold-out seeds, so the sold-out rate moves the sums
    d, replica_period = replica_inputs
    assert run(
        "sweep", "--model", str(d / "model.json"), "--graph", str(d / "edges.csv"),
        "--tweets", str(d / "tweets.csv"), "--period", replica_period,
        "--corrective-rate", "0.02", "--misinfo-rate", "0.05", "--trials", "2", "--out", str(cli),
    ) == 0
    graph, seeds, period = load(d / "edges.csv", d / "tweets.csv", replica_period)
    model = load_model(d / "model.json")
    grid = sweep(graph, seeds, model, [0.02], [0.05], trials=2, base_seed=0, period=period)
    sweep_trials_csv(grid, lib / "sweep_trials.csv")
    sweep_summary_csv(grid, lib / "sweep_summary.csv")
    for name in ("sweep_trials.csv", "sweep_summary.csv"):
        assert rows(cli / name) == rows(lib / name)


def test_gen_graph_rejects_more_users_than_a_graph_holds(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("gen-graph", "--n-users", "2147483648", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: n_users must be in [0, 2147483647]\n"
    assert not out.exists()


# retweets.csv digest -> the digest of the exposure.csv counted from it
EXPOSURE_DIGESTS = {
    "9dd3b6c42d79276fe3e5b0daf442834e60d286ceeaaad0c27cfb41ed940805b2":
        "ac813e2e890c8bfdc1769e3822e193979363fad19c657e58874b9f439deb326f",
    "0cb0ce2ccfc7c9cf75500ff6bebaad719a6f3cdc57cf0a90ec67b00ce6db1cd9":
        "ed8a882c1c83c671e9024f67a7489c64d3f1efcd655c51b1d155de8ca7e4cae1",
}


@pytest.mark.parametrize(
    "rates, digest",
    [
        ([], "9dd3b6c42d79276fe3e5b0daf442834e60d286ceeaaad0c27cfb41ed940805b2"),
        (
            ["--corrective-rate", "0.05", "--misinfo-rate", "0.05", "--soldout-rate", "0.05"],
            "0cb0ce2ccfc7c9cf75500ff6bebaad719a6f3cdc57cf0a90ec67b00ce6db1cd9",
        ),
    ],
)
def test_simulate_retweets_pinned(small_replica, tmp_path, monkeypatch, rates, digest):
    """retweets.csv of the 3000-user replica, as the per-tweet loop wrote it
    (117 and 1173 retweets), and the exposure.csv counted from it; paths are
    relative, so the `#` header is the same in every run."""
    r = small_replica
    monkeypatch.chdir(tmp_path)
    save_edges(r.graph, "edges.csv")
    save_cascades(r.cascades, "seeds.csv", "real_retweets.csv", r.graph)
    start, end = r.config.period
    period = f"{start}..{end}"
    assert run(
        "simulate", "--graph", "edges.csv", "--tweets", "seeds.csv", "--period", period,
        "--seed", "3", *rates,
    ) == 0
    assert hashlib.sha256((tmp_path / "retweets.csv").read_bytes()).hexdigest() == digest
    assert run(
        "exposure", "--graph", "edges.csv", "--tweets", "tweets.csv",
        "--retweets", "retweets.csv", "--period", period,
    ) == 0
    got = hashlib.sha256((tmp_path / "exposure.csv").read_bytes()).hexdigest()
    assert got == EXPOSURE_DIGESTS[digest]


def test_config_file_merge_and_flag_override(pipeline, tmp_path):
    cfg = {
        "graph": os.path.join(pipeline, "edges.csv"),
        "tweets": os.path.join(pipeline, "tweets.csv"),
        "retweets": os.path.join(pipeline, "retweets.csv"),
        "period": PERIOD,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    d = str(tmp_path / "out")
    assert run("exposure", "--config", str(p), "--out", d) == 0
    with open(os.path.join(d, "exposure.csv")) as fh:
        base = fh.read()
    assert "# period=2020-02-21..2020-03-01" in base


def test_config_file_out_is_honored(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_users": 20, "out": str(tmp_path / "from_file")}))
    assert run("gen-graph", "--config", str(p)) == 0
    assert (tmp_path / "from_file" / "edges.csv").exists()
    assert run("gen-graph", "--config", str(p), "--out", str(tmp_path / "flag")) == 0
    assert (tmp_path / "flag" / "edges.csv").exists()


def test_unknown_config_key_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"grpah": "oops.csv"}))
    assert run("exposure", "--config", str(p)) == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("period", 5),
        ("period", "2020-02-21"),
        ("seed", [1]),
        ("seed", 2.5),
        ("seed", True),
        ("n_users", "many"),
        ("retention", None),
        ("cumulative_exposure", 1),
        ("include_authors", "no"),
        ("graph", {"path": "edges.csv"}),
    ],
)
def test_config_values_parse_as_their_flags(tmp_path, capsys, key, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({key: value}))
    assert run("exposure", "--config", str(p), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith(f"error: config key {key!r}: ")


def test_config_file_and_flags_write_the_same_header(pipeline, tmp_path):
    flags = [
        "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--retweets", os.path.join(pipeline, "retweets.csv"),
        "--period", PERIOD, "--cumulative-exposure", "--exclude-authors",
    ]
    cfg = dict(zip(("graph", "tweets", "retweets", "period"), flags[1:8:2]))
    cfg.update(cumulative_exposure=True, include_authors=False)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    assert run("exposure", *flags, "--out", out) == 0
    by_flags = (tmp_path / "out" / "exposure.csv").read_bytes()
    assert run("exposure", "--config", str(p), "--out", out) == 0
    assert (tmp_path / "out" / "exposure.csv").read_bytes() == by_flags
    assert b"# include_authors=False\n" in by_flags


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_honour_the_umask(pipeline, tmp_path, umask, mode):
    d = str(tmp_path)
    edges = os.path.join(d, "edges.csv")
    dataset = ["--graph", edges, "--tweets", os.path.join(d, "tweets.csv"),
               "--retweets", os.path.join(d, "retweets.csv"), "--period", PERIOD]
    old = os.umask(umask)
    try:
        # the pipeline's graph and cascades again, so that its sales fit
        assert run("gen-graph", "--n-users", "400", "--min-degree", "2", "--seed", "3",
                   "--out", d) == 0
        assert run("simulate", "--graph", edges, "--tweets", os.path.join(pipeline, "seeds.csv"),
                   "--period", PERIOD, "--corrective-rate", "0.3", "--misinfo-rate", "0.2",
                   "--soldout-rate", "0.2", "--seed", "1", "--out", d) == 0
        assert run("fit", *dataset, "--sales", os.path.join(pipeline, "sales.csv"),
                   "--out", d) == 0
    finally:
        os.umask(old)
    names = ["edges.csv", "edges.csv.csr", "tweets.csv", "retweets.csv", "model.json",
             "diagnostics.csv"]
    assert {n: oct(os.stat(os.path.join(d, n)).st_mode & 0o777) for n in names} == dict.fromkeys(
        names, oct(mode)
    )


def test_missing_required_flag_is_input_error(tmp_path):
    assert run("exposure", "--out", str(tmp_path)) == 1


# each command's required options, in the order its error names them
REQUIRED = {
    "gen-graph": ["n_users"],
    "simulate": ["graph", "tweets", "period"],
    "exposure": ["graph", "tweets", "retweets", "period"],
    "fit": ["graph", "tweets", "retweets", "sales", "period"],
    "impacts": ["model"],
    "whatif": ["model", "graph", "tweets", "retweets", "period"],
    "sweep": ["model", "graph", "tweets", "period"],
}


def required_value(key, tmp_path):
    """A value the option's flag takes; every path names no file."""
    return {"n_users": "5", "period": PERIOD}.get(key, str(tmp_path / f"no-{key}"))


@pytest.mark.parametrize(
    "command, left_out",
    [(c, out) for c, keys in REQUIRED.items() for out in ([k] for k in keys)]
    + [(c, keys) for c, keys in REQUIRED.items() if len(keys) > 1],
)
def test_missing_required_options_are_named_before_any_input_is_read(
    tmp_path, capsys, command, left_out
):
    argv = [command, "--out", str(tmp_path / "out")]
    for key in REQUIRED[command]:
        if key not in left_out:
            argv += ["--" + key.replace("_", "-"), required_value(key, tmp_path)]
    assert run(*argv) == 1
    missing = ", ".join("--" + k.replace("_", "-") for k in left_out)
    assert capsys.readouterr().err == f"error: missing required option(s): {missing}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", REQUIRED)
def test_required_options_pass_the_check_as_config_keys(tmp_path, capsys, command):
    """Every required option but --model, which a config file may not set."""
    keys = [k for k in REQUIRED[command] if k != "model"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({k: required_value(k, tmp_path) for k in keys}))
    model = ["--model", required_value("model", tmp_path)] if "model" in REQUIRED[command] else []
    code = run(command, "--config", str(p), *model, "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    # gen-graph reads no input; every other command fails reading its first
    if command == "gen-graph":
        assert (code, err) == (0, "")
    else:
        assert code == 1 and err.startswith("error: [Errno 2] No such file"), err


def test_missing_file_is_input_error(tmp_path):
    code = run(
        "exposure", "--graph", "no-such.csv", "--tweets", "x", "--retweets", "y",
        "--period", PERIOD, "--out", str(tmp_path),
    )
    assert code == 1


def test_directory_as_input_is_input_error(pipeline, tmp_path, capsys):
    code = run(
        "exposure", "--graph", str(tmp_path), "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--retweets", os.path.join(pipeline, "retweets.csv"),
        "--period", PERIOD, "--out", str(tmp_path),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_period_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("exposure", "--period", "yesterday")
    assert exc.value.code == 2


TWO_USERS = SocialGraph(2, [(0, 1)], external_ids=["u0", "u1"])


def read_tweets(day):
    text = f"tweet_id,author_id,category,day\nt0,u0,misinformation,{day}\n"
    return load_seed_tweets(io.StringIO(text), TWO_USERS)


def model_with_train_day(day, pipeline):
    with open(os.path.join(pipeline, "model.json")) as fh:
        doc = json.load(fh)
    doc["train_days"][0] = day
    return model_from_json(json.dumps(doc))


# every reader of a day: (its call on a day and the pipeline directory,
# the error it raises, the start of its message)
DAY_SITES = {
    "tweets": (lambda day, _: read_tweets(day), CascadeError, "line 2: "),
    "retweets": (
        lambda day, _: load_retweets(
            io.StringIO(f"user_id,tweet_id,day,seq\nu1,t0,{day},5\n"),
            TWO_USERS, read_tweets("2020-02-21"),
        ),
        CascadeError, "line 2: ",
    ),
    "exposure": (
        lambda day, _: ExposureMatrix.from_csv(
            io.StringIO(f"day,x1,x2,x3,x4,x5,x6,x7\n{day},1,2,3,4,5,6,7\n")
        ),
        ExposureError, "line 2: ",
    ),
    "sales": (
        lambda day, _: SalesSeries.from_csv(io.StringIO(f"date,sales_index\n{day},0.1\n")),
        SalesModelError, "line 2: ",
    ),
    "model": (model_with_train_day, SalesModelError, "model field 'train_days': "),
    "period": (
        lambda day, _: _period_arg(f"{day}..2020-03-01"),
        argparse.ArgumentTypeError, "--period must look like",
    ),
}


@pytest.mark.parametrize("site", DAY_SITES)
@pytest.mark.parametrize("day", ["20200221", "2020-W09-5", "2020-2-21"])
def test_days_are_exactly_yyyy_mm_dd(pipeline, site, day):
    """Python 3.11+'s `date.fromisoformat` reads the first two as days
    (the week date as 2020-02-28); no Python reads them at any site."""
    read, error, message = DAY_SITES[site]
    read("2020-02-21", pipeline)
    with pytest.raises(error, match=f"^{message}"):
        read(day, pipeline)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


@pytest.mark.parametrize("level", ["info", "Debug", ""])
def test_log_level_names_a_logging_level(tmp_path, level):
    assert infodemic_process(tmp_path, level).returncode == 0
    assert (tmp_path / "edges.csv").exists()


def test_unknown_log_level_is_input_error(tmp_path):
    done = infodemic_process(tmp_path, "verbose")
    assert (done.returncode, done.stderr) == (1, "error: INFODEMIC_LOG: unknown level 'VERBOSE'\n")
    assert not (tmp_path / "edges.csv").exists()


def infodemic_process(out, level):
    """`infodemic gen-graph` in a fresh interpreter with `INFODEMIC_LOG`
    set to `level`: in this one, the test runner's log handlers would make
    the CLI's logging set-up a no-op."""
    src = os.path.dirname(os.path.dirname(infodemic.__file__))
    env = dict(os.environ, INFODEMIC_LOG=level, PYTHONPATH=src)
    argv = ["gen-graph", "--n-users", "5", "--seed", "1", "--out", str(out)]
    return subprocess.run([sys.executable, "-m", "infodemic.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_commands_reject_flags_they_do_not_read():
    for argv in (["exposure", "--seed", "1"], ["fit", "--seed", "1"], ["impacts", "--seed", "1"],
                 ["simulate", "--retweets", "r.csv"], ["sweep", "--retweets", "r.csv"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2, argv


def test_short_sales_row_is_input_error(pipeline, tmp_path):
    sales = tmp_path / "sales.csv"
    sales.write_text("date,sales_index\n2020-02-21\n")
    code = run(
        "fit", "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--retweets", os.path.join(pipeline, "retweets.csv"),
        "--sales", str(sales), "--period", PERIOD, "--out", str(tmp_path),
    )
    assert code == 1


@pytest.mark.parametrize("text", ["[]", '{"format_version": 1}', '{"format_version": 1, "k": "4"}'])
def test_malformed_model_json_is_input_error(pipeline, tmp_path, capsys, text):
    model = tmp_path / "m.json"
    model.write_text(text)
    code = run(
        "impacts", "--model", str(model), "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--retweets", os.path.join(pipeline, "retweets.csv"),
        "--period", PERIOD, "--out", str(tmp_path),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-1e400"],
)
@pytest.mark.parametrize("field", ["means", "eigenvectors", "coefficients", "intercept"])
def test_model_numbers_prediction_reads_must_be_finite(pipeline, tmp_path, capsys, field, value):
    """`json` reads NaN, Infinity and integers no float holds; each would
    predict NaN or fail mid-command."""
    with open(os.path.join(pipeline, "model.json")) as fh:
        doc = json.load(fh)
    if field == "intercept":
        doc[field] = value
    elif field == "eigenvectors":
        doc[field][0][-1] = value
    else:
        doc[field][-1] = value
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    code = run(
        "whatif", "--model", str(model), "--graph", os.path.join(pipeline, "edges.csv"),
        "--tweets", os.path.join(pipeline, "tweets.csv"),
        "--retweets", os.path.join(pipeline, "retweets.csv"),
        "--period", PERIOD, "--trials", "1", "--out", str(tmp_path),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: model field {field!r} ")
    assert not (tmp_path / "whatif.csv").exists()


def test_outputs_do_not_depend_on_the_edge_sidecar(pipeline, tmp_path):
    """Every command's output bytes are the same whether the graph comes
    from a parse or from the `.csr` sidecar, and whatever state it is in."""
    for name in ("edges.csv", "seeds.csv", "sales.csv"):
        shutil.copy(os.path.join(pipeline, name), tmp_path / name)
    edges, out = str(tmp_path / "edges.csv"), str(tmp_path / "out")
    sidecar = tmp_path / "edges.csv.csr"
    tweets, retweets = os.path.join(out, "tweets.csv"), os.path.join(out, "retweets.csv")
    dataset = ["--graph", edges, "--tweets", tweets, "--retweets", retweets, "--period", PERIOD]
    model = ["--model", os.path.join(out, "model.json")]
    commands = [
        ["simulate", "--graph", edges, "--tweets", str(tmp_path / "seeds.csv"),
         "--period", PERIOD, "--corrective-rate", "0.3", "--misinfo-rate", "0.2",
         "--soldout-rate", "0.2", "--seed", "1"],
        ["exposure", *dataset],
        ["fit", *dataset, "--sales", str(tmp_path / "sales.csv"), "--k", "4"],
        ["impacts", *dataset, *model],
        ["whatif", *dataset, *model, "--retention", "0.5", "--trials", "2", "--seed", "1"],
        ["sweep", *dataset[:4], *dataset[6:], *model, "--misinfo-rate", "0.05",
         "--trials", "2", "--seed", "7"],
    ]

    def outputs() -> dict[str, bytes]:
        shutil.rmtree(out, ignore_errors=True)
        for argv in commands:
            assert run(*argv, "--out", out) == 0, argv[0]
        return {name: (tmp_path / "out" / name).read_bytes() for name in os.listdir(out)}

    want = outputs()  # the first load parses and writes the sidecar
    assert len(want) == 10 and sidecar.exists()
    assert outputs() == want  # every load reads the sidecar
    sidecar.write_bytes(sidecar.read_bytes()[:-100])
    assert outputs() == want  # truncated
    other = tmp_path / "other.csv"
    save_edges(SocialGraph(2, [(0, 1)]), other)
    shutil.copy(tmp_path / "other.csv.csr", sidecar)
    assert outputs() == want  # made for other bytes
    sidecar.unlink()
    assert outputs() == want  # absent


def test_ids_with_commas_and_quotes_survive_simulate(tmp_path):
    ids = ["a,b", 'say "hi"', "plain", 'x,"y"', "z"]
    g = SocialGraph(5, [(1, 0), (2, 0), (3, 1), (4, 3), (0, 2)], external_ids=ids)
    edges, seeds = str(tmp_path / "edges.csv"), tmp_path / "seeds.csv"
    save_edges(g, edges)
    seeds.write_text(
        'tweet_id,author_id,category,day\n"t,1","a,b",corrective,2020-02-21\n'
        't2,"say ""hi""",misinformation,2020-02-22\n'
    )
    out = str(tmp_path / "out")
    assert run(
        "simulate", "--graph", edges, "--tweets", str(seeds), "--period", PERIOD,
        "--corrective-rate", "1", "--misinfo-rate", "1", "--out", out,
    ) == 0
    tweets, retweets = os.path.join(out, "tweets.csv"), os.path.join(out, "retweets.csv")
    with open(retweets, encoding="utf-8", newline="") as fh:
        assert '"say ""hi"""' in fh.read()  # a retweeter id that needs quotes
    assert run(
        "exposure", "--graph", edges, "--tweets", tweets, "--retweets", retweets,
        "--period", PERIOD, "--out", out,
    ) == 0
    with open(os.path.join(out, "exposure.csv")) as fh:
        assert ExposureMatrix.from_csv(fh).counts.sum() > 0


def long_flags(parser: argparse.ArgumentParser) -> set[str]:
    """The `--` flags of `parser`, argparse's own `--help` aside."""
    return {f for a in parser._actions for f in a.option_strings if f.startswith("--")} - {"--help"}


def test_readme_cli_flags_are_the_parsers():
    """README's flag table lists each command's required and optional
    flags as `build_parser` makes them, besides `--config` and `--out`;
    and every `--flag` the CLI section names is a flag of some command."""
    top = build_parser()
    (sub,) = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        # from the `## CLI` heading to the next one
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if m := re.fullmatch(r"\| `([a-z-]+)` \| (.*) \| (.*) \|", line):
            rows[m[1]] = tuple(set(re.findall(r"`(--[a-z-]+)`", cell)) for cell in m.group(2, 3))
    assert set(rows) == set(sub.choices)
    for name, parser in sub.choices.items():
        required = {"--" + flag.replace("_", "-") for flag in parser.get_default("required")}
        assert rows[name] == (required, long_flags(parser) - required - {"--config", "--out"}), name
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    assert named <= long_flags(top).union(*map(long_flags, sub.choices.values()))
    assert {"--config", "--out", "--version"} <= named


# The data formats exactly as README.md documents them, with a leading
# comment line and a quoted id.
README_EDGES = """\
# follower graph, exported by hand
follower_id,followee_id
bob,alice
"carol, jr",alice
dave,alice
erin,bob
frank,"carol, jr"
alice,dave
erin,dave
frank,dave
bob,erin
"""
README_TWEETS = """\
# seed tweets
tweet_id,author_id,category,day
c1,alice,corrective,2020-02-21
m1,dave,misinformation,2020-02-22
c2,"carol, jr",corrective,2020-02-23
s1,bob,soldout,2020-02-24
m2,alice,misinformation,2020-02-25
c3,dave,corrective,2020-02-26
s2,erin,soldout,2020-02-27
"""
README_RETWEETS = """\
# retweets
user_id,tweet_id,day,seq
bob,c1,2020-02-22,1
"carol, jr",c1,2020-02-22,2
erin,m1,2020-02-23,3
frank,c2,2020-02-24,4
bob,m2,2020-02-26,5
frank,c3,2020-02-27,6
"""
README_SALES_INDEX = """\
# sales index
date,sales_index
2020-02-21,0.12
2020-02-22,-0.03
2020-02-23,0.08
2020-02-24,0.2
2020-02-25,-0.06
2020-02-26,0.05
2020-02-27,0.15
"""
README_SALES_RAW = """\
# raw sales
date,sales,sales_prev_year
2020-02-21,112,100
2020-02-22,97,100
2020-02-23,108,100
2020-02-24,120,100
2020-02-25,94,100
2020-02-26,105,100
2020-02-27,115,100
"""


def test_readme_formats_run_the_pipeline(tmp_path):
    files = {"edges.csv": README_EDGES, "tweets.csv": README_TWEETS,
             "retweets.csv": README_RETWEETS, "index.csv": README_SALES_INDEX,
             "raw.csv": README_SALES_RAW}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    dataset = ["--graph", str(tmp_path / "edges.csv"), "--tweets", str(tmp_path / "tweets.csv"),
               "--retweets", str(tmp_path / "retweets.csv"), "--period", "2020-02-21..2020-02-27"]
    assert run("exposure", *dataset, "--out", str(tmp_path / "exp")) == 0
    models = []
    for sales in ("index.csv", "raw.csv"):
        out = str(tmp_path / sales[:-4])
        assert run("fit", *dataset, "--sales", str(tmp_path / sales), "--k", "2", "--out", out) == 0
        models.append(os.path.join(out, "model.json"))
    a, b = (load_model(m) for m in models)
    np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-9)
    out = str(tmp_path / "out")
    assert run("impacts", *dataset, "--model", models[0], "--out", out) == 0
    assert run("whatif", *dataset, "--model", models[0], "--retention", "0.5",
               "--trials", "1", "--out", out) == 0
    assert run("sweep", *dataset[:4], *dataset[6:], "--model", models[0],
               "--misinfo-rate", "0.05", "--corrective-rate", "0.01", "--trials", "1",
               "--out", out) == 0
