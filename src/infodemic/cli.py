"""Command-line entry point: `infodemic <command> [flags]`.

Commands compose through documented CSV formats: gen-graph writes an edge
file, simulate writes cascade files, exposure writes the per-day class
matrix, fit persists the sales model, impacts/whatif/sweep write report
CSVs.  Every report table embeds the effective configuration as
`#`-comment lines before its header, and all randomness flows from the
single --seed flag.

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
from ._table import write_table
from .cascade import (
    TweetCategory,
    load_retweets,
    load_seed_tweets,
    save_cascades,
    simulate_cascades,
)
from .counterfactual import (
    CORRECTIVE_RATE_LEVELS,
    MISINFO_RATE_LEVELS,
    REAL_CORRECTIVE_RT_RATE,
    REAL_MISINFO_RT_RATE,
    compare,
    guideline_experiment,
    reduce_corrective,
    sweep,
    sweep_summary_csv,
    sweep_trials_csv,
)
from .exposure import exposure_matrix, total_exposures
from .graph import GraphGenConfig, generate_graph, load_edges_file, save_edges
from .salesmodel import SalesSeries, fit, group_impacts, load_model, save_model

log = logging.getLogger("infodemic.cli")

# every package error subclasses ValueError
_INPUT_ERRORS = (ValueError, FileNotFoundError)


class CliError(Exception):
    pass


def _period_arg(text: str) -> tuple[date, date]:
    try:
        a, b = text.split("..")
        return date.fromisoformat(a), date.fromisoformat(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--period must look like 2020-02-21..2020-03-10, got {text!r}"
        ) from None


# every command flag, by name (the flag without `--`, dashes as underscores)
# -> add_argument keywords; a flag's value lands under its `dest`, its name
# unless given
_FLAGS: dict[str, dict] = {
    "graph": {"help": "edge CSV (follower_id,followee_id)"},
    "tweets": {"help": "seed-tweet CSV"},
    "retweets": {"help": "retweet CSV"},
    "period": {"type": _period_arg, "help": "FROM..TO (ISO dates, inclusive)"},
    "model": {"help": "fitted model JSON"},
    "sales": {"help": "sales CSV"},
    "seed": {"type": int, "help": "base RNG seed (default 0)"},
    "n_users": {"type": int},
    "exponent": {"type": float},
    "min_degree": {"type": int},
    "max_degree": {"type": int},
    "k": {"type": int},
    "retention": {"type": float},
    "trials": {"type": int},
    "misinfo_rate": {"type": float},
    "corrective_rate": {"type": float},
    "soldout_rate": {"type": float},
    "cumulative_exposure": {"action": "store_true", "default": None},
    "drop_nonsignificant_pcs": {"action": "store_true", "default": None},
    "exclude_authors": {"dest": "include_authors", "action": "store_false", "default": None},
}

# the keys of a command's effective configuration -> their flag's spec; a
# config file may not set --model
_OPTIONS = {spec.get("dest", name): spec for name, spec in _FLAGS.items()} | {"out": {}}
_CONFIG_KEYS = set(_OPTIONS) - {"model"}


def _load_config_file(path: str) -> dict:
    """The config file's options, each parsed as its flag parses its value."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return {key: _config_value(key, value) for key, value in doc.items()}


def _config_value(key: str, value):
    spec = _OPTIONS[key]
    if "action" in spec:  # an on/off flag takes a JSON boolean
        if not isinstance(value, bool):
            raise CliError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CliError(f"config key {key!r}: expected a string or a number, got {value!r}")
    try:
        return spec.get("type", str)(str(value))
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise CliError(f"config key {key!r}: {e}") from None


def _effective(args: argparse.Namespace) -> dict:
    """The config file's keys, overridden by every flag the command was given."""
    cfg = dict(args.file_config)
    cfg.update((k, v) for k, v in vars(args).items() if k in _OPTIONS and v is not None)
    cfg.setdefault("out", ".")
    return cfg


def _comments(cfg: dict) -> list[str]:
    out = [f"infodemic {__version__}"]
    for k in sorted(cfg):
        v = cfg[k]
        if isinstance(v, tuple):
            v = f"{v[0]}..{v[1]}"
        out.append(f"{k}={v}")
    return out


def _outpath(cfg: dict, name: str) -> str:
    os.makedirs(cfg["out"], exist_ok=True)
    return os.path.join(cfg["out"], name)


def _write(cfg: dict, name: str, header: list[str], rows) -> str:
    """Write one output table under the output directory, headed by the
    configuration."""
    path = _outpath(cfg, name)
    write_table(path, header, rows, _comments(cfg))
    return path


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
    cfg = _effective(args)
    _require(cfg, "n_users")
    g = generate_graph(
        GraphGenConfig(
            n_users=cfg["n_users"],
            exponent=cfg.get("exponent", 2.5),
            min_degree=cfg.get("min_degree", 1),
            max_degree=cfg.get("max_degree"),
            seed=cfg.get("seed", 0),
        )
    )
    path = _outpath(cfg, "edges.csv")
    save_edges(g, path)
    print(f"wrote {path}: {g.n_users} users, {g.n_edges} edges")


def cmd_simulate(args) -> None:
    cfg = _effective(args)
    _require(cfg, "graph", "tweets", "period")
    graph = load_edges_file(cfg["graph"])
    with open(cfg["tweets"], encoding="utf-8", newline="") as fh:
        seeds = load_seed_tweets(fh, graph)
    cascades = simulate_cascades(
        graph,
        seeds,
        {
            TweetCategory.MISINFORMATION: cfg.get("misinfo_rate", REAL_MISINFO_RT_RATE),
            TweetCategory.CORRECTIVE: cfg.get("corrective_rate", REAL_CORRECTIVE_RT_RATE),
            TweetCategory.SOLDOUT: cfg.get("soldout_rate", 0.004),
        },
        cfg["period"],
        derive_seed(cfg.get("seed", 0), "cli-simulate"),
        corrective_blocks_misinfo=True,
    )
    tw, rt = _outpath(cfg, "tweets.csv"), _outpath(cfg, "retweets.csv")
    save_cascades(cascades, tw, rt, graph)
    print(f"wrote {tw} and {rt}: {sum(len(c.events) for c in cascades)} retweets")


def cmd_exposure(args) -> None:
    cfg = _effective(args)
    _require(cfg, "graph", "tweets", "retweets", "period")
    graph, _, cascades = _load_dataset(cfg)
    m = exposure_matrix(
        graph,
        cascades,
        cfg["period"],
        cumulative=cfg.get("cumulative_exposure", False),
        include_actors=cfg.get("include_authors", True),
    )
    path = _outpath(cfg, "exposure.csv")
    m.to_csv(path, _comments(cfg))
    print(f"wrote {path}: {len(m.days)} days")


def cmd_fit(args) -> None:
    cfg = _effective(args)
    _require(cfg, "graph", "tweets", "retweets", "sales", "period")
    graph, _, cascades = _load_dataset(cfg)
    with open(cfg["sales"], encoding="utf-8", newline="") as fh:
        sales = SalesSeries.from_csv(fh)
    matrix = exposure_matrix(graph, cascades, cfg["period"])
    model = fit(
        matrix,
        sales,
        k=cfg.get("k", 4),
        drop_nonsignificant=cfg.get("drop_nonsignificant_pcs", False),
    )
    mpath = _outpath(cfg, "model.json")
    save_model(model, mpath)
    d = model.diagnostics
    terms = [f"a{i + 1}" for i in range(model.k)] + ["intercept"]
    estimates = [*d.coefficients.tolist(), d.intercept]
    rows = [
        *zip(terms, estimates, d.stderrs.tolist(), d.t_values.tolist(), d.p_values.tolist()),
        ("r_squared", float(d.r_squared), "", "", ""),
        ("f_value", float(d.f_value), "", "", ""),
    ]
    header = ["term", "coefficient", "stderr", "t_value", "p_value"]
    dpath = _write(cfg, "diagnostics.csv", header, rows)
    print(f"wrote {mpath} and {dpath}: R^2={d.r_squared:.4f} F={d.f_value:.2f}")


def cmd_impacts(args) -> None:
    cfg = _effective(args)
    _require(cfg, "model")
    imp = load_model(cfg["model"]).per_viewer_impacts
    rows = [(f"x{i + 1}", v) for i, v in enumerate(imp.tolist())]
    paths = [_write(cfg, "per_viewer_impacts.csv", ["class", "per_viewer_impact"], rows)]
    if cfg.get("graph") and cfg.get("tweets") and cfg.get("retweets") and cfg.get("period"):
        graph, _, cascades = _load_dataset(cfg)
        totals = total_exposures(exposure_matrix(graph, cascades, cfg["period"]))
        gi = group_impacts(imp, totals)
        rows = [(f"x{i + 1}", t, v) for i, (t, v) in enumerate(zip(totals.tolist(), gi.tolist()))]
        header = ["class", "total_viewers", "group_impact"]
        paths.append(_write(cfg, "group_impacts.csv", header, rows))
    print("wrote " + " and ".join(paths))


def cmd_whatif(args) -> None:
    cfg = _effective(args)
    _require(cfg, "model", "graph", "tweets", "retweets", "period")
    model = load_model(cfg["model"])
    graph, _, cascades = _load_dataset(cfg)
    period = cfg["period"]
    trials = cfg.get("trials", 10)
    seed = cfg.get("seed", 0)
    baseline = reduce_corrective(graph, cascades, model, 1.0, derive_seed(seed, "w", 0), period)
    retentions = (
        [cfg["retention"]]
        if cfg.get("retention") is not None
        else [r / CORRECTIVE_RATE_LEVELS[0] for r in CORRECTIVE_RATE_LEVELS]
    )
    rows = []
    for r in retentions:
        for t in range(trials):
            res = reduce_corrective(graph, cascades, model, r, derive_seed(seed, "w", t), period, t)
            reduction = compare(baseline.sum_index, res.sum_index)
            rows.append((f"retention={r:g}", t, res.sum_index, reduction))
    mis_rate = cfg.get("misinfo_rate", REAL_MISINFO_RT_RATE)
    for t in range(trials):
        res = guideline_experiment(graph, cascades, model, mis_rate, derive_seed(seed, "g", t), period, t)
        rows.append(("guideline", t, res.sum_index, compare(baseline.sum_index, res.sum_index)))
    header = ["scenario", "trial", "sum_sales_index", "reduction_vs_baseline"]
    path = _write(cfg, "whatif.csv", header, rows)
    print(f"wrote {path}: baseline sum {baseline.sum_index:.4f}")


def cmd_sweep(args) -> None:
    cfg = _effective(args)
    _require(cfg, "model", "graph", "tweets", "period")
    model = load_model(cfg["model"])
    graph = load_edges_file(cfg["graph"])
    with open(cfg["tweets"], encoding="utf-8", newline="") as fh:
        seeds = load_seed_tweets(fh, graph)
    corrective = (
        [cfg["corrective_rate"]]
        if cfg.get("corrective_rate") is not None
        else list(CORRECTIVE_RATE_LEVELS)
    )
    misinfo = (
        [cfg["misinfo_rate"]]
        if cfg.get("misinfo_rate") is not None
        else list(MISINFO_RATE_LEVELS)
    )
    grid = sweep(
        graph,
        seeds,
        model,
        corrective,
        misinfo,
        trials=cfg.get("trials", 10),
        base_seed=cfg.get("seed", 0),
        period=cfg["period"],
        soldout_rt_rate=cfg.get("soldout_rate", 0.004),
    )
    p1, p2 = _outpath(cfg, "sweep_trials.csv"), _outpath(cfg, "sweep_summary.csv")
    sweep_trials_csv(grid, p1, _comments(cfg))
    sweep_summary_csv(grid, p2, _comments(cfg))
    print(f"wrote {p1} and {p2}: {len(grid.cells)} cells x {grid.trials} trials")


# -- argument wiring -------------------------------------------------------

_DATASET = ("graph", "tweets", "retweets", "period")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="infodemic", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    # (command, function, help, the flags it reads besides --config and --out);
    # built per call, so a function rebound on the module (a tracing wrapper,
    # say) is the one dispatched
    commands = (
        ("gen-graph", cmd_gen_graph, "synthesize a follower graph",
         ("n_users", "exponent", "min_degree", "max_degree", "seed")),
        ("simulate", cmd_simulate, "diffuse seed tweets stochastically",
         ("graph", "tweets", "period", "misinfo_rate", "corrective_rate", "soldout_rate", "seed")),
        ("exposure", cmd_exposure, "compute the daily class matrix",
         (*_DATASET, "cumulative_exposure", "exclude_authors")),
        ("fit", cmd_fit, "fit the sales model (PCA + OLS)",
         (*_DATASET, "sales", "k", "drop_nonsignificant_pcs")),
        ("impacts", cmd_impacts, "per-viewer and per-group impact tables", (*_DATASET, "model")),
        ("whatif", cmd_whatif, "corrective reduction + guideline experiments",
         (*_DATASET, "model", "retention", "misinfo_rate", "trials", "seed")),
        ("sweep", cmd_sweep, "RT-rate grid sweep",
         ("graph", "tweets", "period", "model", "misinfo_rate", "corrective_rate", "soldout_rate",
          "trials", "seed")),
    )
    for name, func, help_text, flags in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output directory (default .)")
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        p.set_defaults(func=func)
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
