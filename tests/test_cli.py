import hashlib
import json
import os

import numpy as np
import pytest

from infodemic.cascade import save_cascades
from infodemic.cli import main
from infodemic.exposure import ExposureMatrix
from infodemic.graph import load_edges_file, save_edges
from infodemic.salesmodel import SalesSeries, load_model

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
def test_simulate_retweets_pinned(small_replica, tmp_path, rates, digest):
    """retweets.csv of the 3000-user replica, as the per-tweet loop wrote it
    (117 and 1173 retweets)."""
    r = small_replica
    edges, seeds = str(tmp_path / "edges.csv"), str(tmp_path / "seeds.csv")
    save_edges(r.graph, edges)
    save_cascades(r.cascades, seeds, tmp_path / "real_retweets.csv", r.graph)
    start, end = r.config.period
    assert run(
        "simulate", "--graph", edges, "--tweets", seeds, "--period", f"{start}..{end}",
        "--seed", "3", "--out", str(tmp_path), *rates,
    ) == 0
    assert hashlib.sha256((tmp_path / "retweets.csv").read_bytes()).hexdigest() == digest


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


def test_unknown_config_key_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"grpah": "oops.csv"}))
    assert run("exposure", "--config", str(p)) == 1


def test_missing_required_flag_is_input_error(tmp_path):
    assert run("exposure", "--out", str(tmp_path)) == 1


def test_missing_file_is_input_error(tmp_path):
    code = run(
        "exposure", "--graph", "no-such.csv", "--tweets", "x", "--retweets", "y",
        "--period", PERIOD, "--out", str(tmp_path),
    )
    assert code == 1


def test_bad_period_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("exposure", "--period", "yesterday")
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
