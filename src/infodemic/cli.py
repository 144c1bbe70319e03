"""Command-line entry point: `infodemic <command> [flags]`.

Commands compose through documented CSV formats: gen-graph writes an edge
file, simulate writes cascade files, exposure writes the per-day class
matrix, fit persists the sales model, impacts/whatif/sweep write report
CSVs.  Every output embeds the effective configuration as `#`-comment
header lines, and all randomness flows from the single --seed flag.

Exit codes: 0 success, 1 input/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from datetime import date

from . import __version__
from ._rng import derive_seed
from .cascade import (
    CascadeError,
    TweetCategory,
    load_retweets,
    load_seed_tweets,
    save_cascades,
    simulate_cascades,
)
from .counterfactual import (
    CORRECTIVE_RATE_LEVELS,
    ExperimentError,
    REAL_CORRECTIVE_RT_RATE,
    REAL_MISINFO_RT_RATE,
    compare,
    guideline_experiment,
    reduce_corrective,
    sweep,
    sweep_summary_csv,
    sweep_trials_csv,
)
from .exposure import ExposureError, exposure_matrix, total_exposures
from .graph import GraphError, GraphGenConfig, generate_graph, load_edges_file, save_edges
from .graph import _atomic_write
from .numerics import NumericsError
from .salesmodel import (
    SalesModelError,
    SalesSeries,
    fit,
    group_impacts,
    load_model,
    save_model,
    sum_index,
)

log = logging.getLogger("infodemic.cli")

_CONFIG_KEYS = {
    "graph",
    "tweets",
    "retweets",
    "sales",
    "period",
    "k",
    "retention",
    "misinfo_rate",
    "corrective_rate",
    "soldout_rate",
    "trials",
    "seed",
    "out",
    "n_users",
    "exponent",
    "min_degree",
    "max_degree",
    "horizon",
    "cumulative_exposure",
    "include_authors",
    "drop_nonsignificant_pcs",
}

_INPUT_ERRORS = (
    GraphError,
    CascadeError,
    ExposureError,
    SalesModelError,
    NumericsError,
    ExperimentError,
    FileNotFoundError,
    ValueError,
)


class CliError(Exception):
    pass


def _parse_period(text: str) -> tuple[date, date]:
    try:
        a, b = text.split("..")
        return date.fromisoformat(a), date.fromisoformat(b)
    except ValueError:
        raise CliError(f"--period must look like 2020-02-21..2020-03-10, got {text!r}")


def _period_arg(text: str) -> tuple[date, date]:
    try:
        return _parse_period(text)
    except CliError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return doc


def _effective(args: argparse.Namespace, keys: list[str]) -> dict:
    cfg = dict(args.file_config)
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    return cfg


def _comments(cfg: dict) -> list[str]:
    out = [f"infodemic {__version__}"]
    for k in sorted(cfg):
        v = cfg[k]
        if isinstance(v, tuple):
            v = f"{v[0]}..{v[1]}"
        out.append(f"{k}={v}")
    return out


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise CliError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")


def _load_dataset(cfg: dict):
    graph = load_edges_file(cfg["graph"])
    with open(cfg["tweets"], encoding="utf-8", newline="") as fh:
        seeds = load_seed_tweets(fh, graph)
    with open(cfg["retweets"], encoding="utf-8", newline="") as fh:
        cascades = load_retweets(fh, graph, seeds)
    return graph, seeds, cascades


# -- commands --------------------------------------------------------------


def cmd_gen_graph(args) -> None:
    cfg = _effective(args, ["n_users", "exponent", "min_degree", "max_degree", "seed", "out"])
    _require(cfg, "n_users")
    g = generate_graph(
        GraphGenConfig(
            n_users=int(cfg["n_users"]),
            exponent=float(cfg.get("exponent", 2.5)),
            min_degree=int(cfg.get("min_degree", 1)),
            max_degree=None if cfg.get("max_degree") is None else int(cfg["max_degree"]),
            seed=int(cfg.get("seed", 0)),
        )
    )
    path = _outpath(args, "edges.csv")
    save_edges(g, path)
    print(f"wrote {path}: {g.n_users} users, {g.n_edges} edges")


def cmd_simulate(args) -> None:
    cfg = _effective(
        args,
        ["graph", "tweets", "period", "misinfo_rate", "corrective_rate", "soldout_rate", "seed", "out"],
    )
    _require(cfg, "graph", "tweets", "period")
    graph = load_edges_file(cfg["graph"])
    with open(cfg["tweets"], encoding="utf-8", newline="") as fh:
        seeds = load_seed_tweets(fh, graph)
    cascades = simulate_cascades(
        graph,
        seeds,
        {
            TweetCategory.MISINFORMATION: float(cfg.get("misinfo_rate", REAL_MISINFO_RT_RATE)),
            TweetCategory.CORRECTIVE: float(cfg.get("corrective_rate", REAL_CORRECTIVE_RT_RATE)),
            TweetCategory.SOLDOUT: float(cfg.get("soldout_rate", 0.004)),
        },
        cfg["period"],
        derive_seed(int(cfg.get("seed", 0)), "cli-simulate"),
        corrective_blocks_misinfo=True,
    )
    tw, rt = _outpath(args, "tweets.csv"), _outpath(args, "retweets.csv")
    save_cascades(cascades, tw, rt, graph)
    print(f"wrote {tw} and {rt}: {sum(len(c.events) for c in cascades)} retweets")


def cmd_exposure(args) -> None:
    cfg = _effective(
        args, ["graph", "tweets", "retweets", "period", "cumulative_exposure", "include_authors", "out"]
    )
    _require(cfg, "graph", "tweets", "retweets", "period")
    graph, _, cascades = _load_dataset(cfg)
    m = exposure_matrix(
        graph,
        cascades,
        cfg["period"],
        cumulative=bool(cfg.get("cumulative_exposure", False)),
        include_actors=bool(cfg.get("include_authors", True)),
    )
    path = _outpath(args, "exposure.csv")
    m.to_csv(path, _comments(cfg))
    print(f"wrote {path}: {len(m.days)} days")


def cmd_fit(args) -> None:
    cfg = _effective(
        args,
        ["graph", "tweets", "retweets", "sales", "period", "k", "drop_nonsignificant_pcs", "out"],
    )
    _require(cfg, "graph", "tweets", "retweets", "sales", "period")
    graph, _, cascades = _load_dataset(cfg)
    with open(cfg["sales"], encoding="utf-8") as fh:
        sales = SalesSeries.from_csv(fh)
    matrix = exposure_matrix(graph, cascades, cfg["period"])
    model = fit(
        matrix,
        sales,
        k=int(cfg.get("k", 4)),
        drop_nonsignificant=bool(cfg.get("drop_nonsignificant_pcs", False)),
    )
    mpath = _outpath(args, "model.json")
    save_model(model, mpath)
    d = model.diagnostics
    lines = [f"# {c}" for c in _comments(cfg)]
    lines.append("term,coefficient,stderr,t_value,p_value")
    for i in range(model.k):
        lines.append(
            f"a{i + 1},{float(d.coefficients[i])!r},{float(d.stderrs[i])!r},"
            f"{float(d.t_values[i])!r},{float(d.p_values[i])!r}"
        )
    lines.append(
        f"intercept,{float(d.intercept)!r},{float(d.stderrs[-1])!r},"
        f"{float(d.t_values[-1])!r},{float(d.p_values[-1])!r}"
    )
    lines.append(f"r_squared,{float(d.r_squared)!r},,,")
    lines.append(f"f_value,{float(d.f_value)!r},,,")
    dpath = _outpath(args, "diagnostics.csv")
    _atomic_write(dpath, "\n".join(lines) + "\n")
    print(f"wrote {mpath} and {dpath}: R^2={d.r_squared:.4f} F={d.f_value:.2f}")


def cmd_impacts(args) -> None:
    cfg = _effective(args, ["graph", "tweets", "retweets", "period", "out"])
    if args.model is None:
        raise CliError("missing required option: --model")
    model = load_model(args.model)
    cfg["model"] = args.model
    imp = model.per_viewer_impacts
    lines = [f"# {c}" for c in _comments(cfg)]
    lines.append("class,per_viewer_impact")
    for i, v in enumerate(imp):
        lines.append(f"x{i + 1},{float(v)!r}")
    p1 = _outpath(args, "per_viewer_impacts.csv")
    _atomic_write(p1, "\n".join(lines) + "\n")
    paths = [p1]
    if cfg.get("graph") and cfg.get("tweets") and cfg.get("retweets") and cfg.get("period"):
        graph, _, cascades = _load_dataset(cfg)
        totals = total_exposures(exposure_matrix(graph, cascades, cfg["period"]))
        gi = group_impacts(imp, totals)
        lines = [f"# {c}" for c in _comments(cfg)]
        lines.append("class,total_viewers,group_impact")
        for i, (t, v) in enumerate(zip(totals, gi)):
            lines.append(f"x{i + 1},{int(t)},{float(v)!r}")
        p2 = _outpath(args, "group_impacts.csv")
        _atomic_write(p2, "\n".join(lines) + "\n")
        paths.append(p2)
    print("wrote " + " and ".join(paths))


def cmd_whatif(args) -> None:
    cfg = _effective(
        args, ["graph", "tweets", "retweets", "period", "retention", "misinfo_rate", "trials", "seed", "out"]
    )
    if args.model is None:
        raise CliError("missing required option: --model")
    _require(cfg, "graph", "tweets", "retweets", "period")
    cfg["model"] = args.model
    model = load_model(args.model)
    graph, _, cascades = _load_dataset(cfg)
    period = cfg["period"]
    trials = int(cfg.get("trials", 10))
    seed = int(cfg.get("seed", 0))
    baseline = reduce_corrective(graph, cascades, model, 1.0, derive_seed(seed, "w", 0), period)
    retentions = (
        [float(cfg["retention"])]
        if cfg.get("retention") is not None
        else [r / CORRECTIVE_RATE_LEVELS[0] for r in CORRECTIVE_RATE_LEVELS]
    )
    lines = [f"# {c}" for c in _comments(cfg)]
    lines.append("scenario,trial,sum_sales_index,reduction_vs_baseline")
    for r in retentions:
        for t in range(trials):
            res = reduce_corrective(graph, cascades, model, r, derive_seed(seed, "w", t), period, t)
            lines.append(
                f"retention={r:g},{t},{res.sum_index!r},{compare(baseline.sum_index, res.sum_index)!r}"
            )
    mis_rate = float(cfg.get("misinfo_rate", REAL_MISINFO_RT_RATE))
    for t in range(trials):
        res = guideline_experiment(graph, cascades, model, mis_rate, derive_seed(seed, "g", t), period, t)
        lines.append(
            f"guideline,{t},{res.sum_index!r},{compare(baseline.sum_index, res.sum_index)!r}"
        )
    path = _outpath(args, "whatif.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    print(f"wrote {path}: baseline sum {baseline.sum_index:.4f}")


def cmd_sweep(args) -> None:
    cfg = _effective(
        args,
        ["graph", "tweets", "retweets", "period", "misinfo_rate", "corrective_rate",
         "soldout_rate", "trials", "seed", "out"],
    )
    if args.model is None:
        raise CliError("missing required option: --model")
    _require(cfg, "graph", "tweets", "period")
    cfg["model"] = args.model
    model = load_model(args.model)
    graph = load_edges_file(cfg["graph"])
    with open(cfg["tweets"], encoding="utf-8", newline="") as fh:
        seeds = load_seed_tweets(fh, graph)
    from .counterfactual import MISINFO_RATE_LEVELS

    corrective = (
        [float(cfg["corrective_rate"])]
        if cfg.get("corrective_rate") is not None
        else list(CORRECTIVE_RATE_LEVELS)
    )
    misinfo = (
        [float(cfg["misinfo_rate"])]
        if cfg.get("misinfo_rate") is not None
        else list(MISINFO_RATE_LEVELS)
    )
    grid = sweep(
        graph,
        seeds,
        model,
        corrective,
        misinfo,
        trials=int(cfg.get("trials", 10)),
        base_seed=int(cfg.get("seed", 0)),
        period=cfg["period"],
        soldout_rt_rate=float(cfg.get("soldout_rate", 0.004)),
    )
    p1, p2 = _outpath(args, "sweep_trials.csv"), _outpath(args, "sweep_summary.csv")
    sweep_trials_csv(grid, p1, _comments(cfg))
    sweep_summary_csv(grid, p2, _comments(cfg))
    print(f"wrote {p1} and {p2}: {len(grid.cells)} cells x {grid.trials} trials")


# -- argument wiring -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="infodemic", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, help="base RNG seed (default 0)")

    def dataset(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", help="edge CSV (follower_id,followee_id)")
        p.add_argument("--tweets", help="seed-tweet CSV")
        p.add_argument("--retweets", help="retweet CSV")
        p.add_argument("--period", type=_period_arg, help="FROM..TO (ISO dates, inclusive)")

    p = sub.add_parser("gen-graph", help="synthesize a follower graph")
    common(p)
    p.add_argument("--n-users", dest="n_users", type=int)
    p.add_argument("--exponent", type=float)
    p.add_argument("--min-degree", dest="min_degree", type=int)
    p.add_argument("--max-degree", dest="max_degree", type=int)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("simulate", help="diffuse seed tweets stochastically")
    common(p)
    dataset(p)
    p.add_argument("--misinfo-rate", dest="misinfo_rate", type=float)
    p.add_argument("--corrective-rate", dest="corrective_rate", type=float)
    p.add_argument("--soldout-rate", dest="soldout_rate", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exposure", help="compute the daily class matrix")
    common(p)
    dataset(p)
    p.add_argument("--cumulative-exposure", dest="cumulative_exposure", action="store_true", default=None)
    p.add_argument("--exclude-authors", dest="include_authors", action="store_false", default=None)
    p.set_defaults(func=cmd_exposure)

    p = sub.add_parser("fit", help="fit the sales model (PCA + OLS)")
    common(p)
    dataset(p)
    p.add_argument("--sales", help="sales CSV")
    p.add_argument("--k", type=int)
    p.add_argument(
        "--drop-nonsignificant-pcs", dest="drop_nonsignificant_pcs", action="store_true", default=None
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("impacts", help="per-viewer and per-group impact tables")
    common(p)
    dataset(p)
    p.add_argument("--model", help="fitted model JSON")
    p.set_defaults(func=cmd_impacts)

    p = sub.add_parser("whatif", help="corrective reduction + guideline experiments")
    common(p)
    dataset(p)
    p.add_argument("--model", help="fitted model JSON")
    p.add_argument("--retention", type=float)
    p.add_argument("--misinfo-rate", dest="misinfo_rate", type=float)
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser("sweep", help="RT-rate grid sweep")
    common(p)
    dataset(p)
    p.add_argument("--model", help="fitted model JSON")
    p.add_argument("--misinfo-rate", dest="misinfo_rate", type=float)
    p.add_argument("--corrective-rate", dest="corrective_rate", type=float)
    p.add_argument("--soldout-rate", dest="soldout_rate", type=float)
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cmd_sweep)
    return top


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("INFODEMIC_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.file_config = _load_config_file(args.config) if args.config else {}
        if "period" in args.file_config and isinstance(args.file_config["period"], str):
            args.file_config["period"] = _parse_period(args.file_config["period"])
        args.func(args)
        return 0
    except (CliError, *_INPUT_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        log.exception("runtime failure")
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
