"""Span recorders around the infodemic package's public functions.

`Tracer.install()` wraps every public module-level function of each layer
module, and rebinds every name under which any `infodemic` module holds
that function (e.g. `infodemic.cli.load_edges_file`, which the CLI calls
instead of `infodemic.graph.load_edges_file`).  Spans nest by call stack;
the package is single-threaded on every benchmarked path, so one stack is
exact.  `uninstall()` restores the original bindings.  Untraced runs
install nothing.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "graph",
    "cascade",
    "exposure",
    "numerics",
    "salesmodel",
    "counterfactual",
    "replica",
    "cli",
)

# CLI commands the pipeline workload runs; each gets a `cli.<command>_s` metric
CLI_COMMANDS = ("simulate", "exposure", "fit", "whatif", "sweep")

# work counts taken from a wrapped call: span name -> fn(args, kwargs, result)
# returning {counter: increment}
_COUNTERS = {
    "graph.generate_graph": lambda a, k, r: {"graph.edges": r.n_edges},
    "graph.load_edges_file": lambda a, k, r: {"graph.loaded_edges": r.n_edges},
    "cascade.simulate_cascades": lambda a, k, r: {
        "cascade.events": sum(len(c.events) for c in r)
    },
    "cascade.prune_cascade": lambda a, k, r: {
        "cascade.prune_offered": len((a[1] if len(a) > 1 else k["cascade"]).events),
        "cascade.prune_kept": len(r.events),
    },
    "exposure.exposure_matrix": lambda a, k, r: {
        "exposure.exposed_user_days": int(r.counts.sum())
    },
}

# span names behind each per-layer metric; the self-test requires the
# workloads to record at least one name of every group between them
SPAN_GROUPS = {
    "graph.generate": ("graph.generate_graph",),
    "graph.load": ("graph.load_edges_file", "graph.load_edges"),
    "graph.save": ("graph.save_edges",),
    "cascade.simulate": ("cascade.simulate_cascades",),
    "cascade.prune": ("cascade.prune_cascade", "cascade.sample_keep_set"),
    "cascade.io": ("cascade.load_seed_tweets", "cascade.load_retweets", "cascade.save_cascades"),
    "exposure.matrix": ("exposure.exposure_matrix", "exposure.daily_exposures"),
    "numerics.pca": ("numerics.pca",),
    "numerics.ols": ("numerics.ols",),
    "salesmodel.fit": ("salesmodel.fit",),
    "salesmodel.predict": ("salesmodel.predict",),
    "counterfactual.sweep": ("counterfactual.sweep",),
    "counterfactual.experiment": (
        "counterfactual.reduce_corrective",
        "counterfactual.guideline_experiment",
    ),
    "counterfactual.trial": (
        "counterfactual.simulate_trial",
        "counterfactual.reduce_corrective",
        "counterfactual.guideline_experiment",
    ),
    "replica.build": ("replica.build_replica",),
    "cli.main": ("cli.main",),
    **{f"cli.{c}": (f"cli.cmd_{c}",) for c in CLI_COMMANDS},
}

PER_LAYER_METRICS = (
    ("graph.generate_s", "s"),
    ("graph.load_s", "s"),
    ("graph.save_s", "s"),
    ("graph.load_edges_per_s", "1/s"),
    ("graph.edges", "count"),
    ("cascade.simulate_s", "s"),
    ("cascade.simulate_calls", "count"),
    ("cascade.events", "count"),
    ("cascade.prune_s", "s"),
    ("cascade.prune_kept_ratio", "ratio"),
    ("cascade.io_s", "s"),
    ("exposure.matrix_s", "s"),
    ("exposure.matrix_calls", "count"),
    ("exposure.exposed_user_days", "count"),
    ("numerics.pca_s", "s"),
    ("numerics.ols_s", "s"),
    ("salesmodel.fit_s", "s"),
    ("salesmodel.predict_s", "s"),
    ("counterfactual.sweep_self_s", "s"),
    ("counterfactual.experiment_self_s", "s"),
    ("counterfactual.trials", "count"),
    ("replica.build_s", "s"),
    *((f"cli.{c}_s", "s") for c in CLI_COMMANDS),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counts (between timed runs)."""
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"infodemic.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "infodemic" and not modname.startswith("infodemic."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def span_names(self) -> set[str]:
        return set(self.names)

    def _children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(i)
        return kids

    def _outermost(self, names: set[str]) -> list[int]:
        """Spans in `names` with no ancestor in `names`."""
        out = []
        for i, n in enumerate(self.names):
            if n not in names:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in names:
                p = self.parents[p]
            if p < 0:
                out.append(i)
        return out

    def _dur(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def covered(self, group: str) -> float:
        """Wall time inside the group's spans, nested repeats counted once."""
        return sum(self._dur(i) for i in self._outermost(set(SPAN_GROUPS[group])))

    def calls(self, group: str) -> int:
        return len(self._outermost(set(SPAN_GROUPS[group])))

    def layer_self(self, group: str, kids: list[list[int]]) -> float:
        """Time in the group's outermost spans not covered by spans of
        other layers called beneath them."""
        layer = group.split(".")[0]

        def foreign(i: int) -> float:
            t = 0.0
            for c in kids[i]:
                if self.names[c].split(".")[0] != layer:
                    t += self._dur(c)
                else:
                    t += foreign(c)
            return t

        return sum(
            self._dur(i) - foreign(i) for i in self._outermost(set(SPAN_GROUPS[group]))
        )

    def layer_shares(self, wall: float) -> dict[str, float]:
        """Self time per layer (span minus all child spans), over `wall`."""
        kids = self._children()
        out = dict.fromkeys(LAYERS, 0.0)
        for i, n in enumerate(self.names):
            out[n.split(".")[0]] += self._dur(i) - sum(self._dur(c) for c in kids[i])
        return {k: v / wall for k, v in out.items()}

    def run_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        kids = self._children()
        load_s = self.covered("graph.load")
        offered = self.counts["cascade.prune_offered"]
        m = {
            "graph.generate_s": self.covered("graph.generate"),
            "graph.load_s": load_s,
            "graph.save_s": self.covered("graph.save"),
            "graph.load_edges_per_s": (
                self.counts["graph.loaded_edges"] / load_s if load_s > 0 else 0.0
            ),
            "graph.edges": self.counts["graph.edges"],
            "cascade.simulate_s": self.covered("cascade.simulate"),
            "cascade.simulate_calls": self.calls("cascade.simulate"),
            "cascade.events": self.counts["cascade.events"],
            "cascade.prune_s": self.covered("cascade.prune"),
            "cascade.prune_kept_ratio": (
                self.counts["cascade.prune_kept"] / offered if offered else 0.0
            ),
            "cascade.io_s": self.covered("cascade.io"),
            "exposure.matrix_s": self.covered("exposure.matrix"),
            "exposure.matrix_calls": self.calls("exposure.matrix"),
            "exposure.exposed_user_days": self.counts["exposure.exposed_user_days"],
            "numerics.pca_s": self.covered("numerics.pca"),
            "numerics.ols_s": self.covered("numerics.ols"),
            "salesmodel.fit_s": self.covered("salesmodel.fit"),
            "salesmodel.predict_s": self.covered("salesmodel.predict"),
            "counterfactual.sweep_self_s": self.layer_self("counterfactual.sweep", kids),
            "counterfactual.experiment_self_s": self.layer_self(
                "counterfactual.experiment", kids
            ),
            "counterfactual.trials": self.calls("counterfactual.trial"),
            "replica.build_s": self.covered("replica.build"),
            "cli.self_s": self.layer_self("cli.main", kids),
        }
        for c in CLI_COMMANDS:
            m[f"cli.{c}_s"] = self.covered(f"cli.{c}")
        return m
