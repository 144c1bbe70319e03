import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from infodemic.cascade import save_cascades
from infodemic.cli import main
from infodemic.exposure import ExposureMatrix
from infodemic.graph import SocialGraph, load_edges_file, save_edges
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
