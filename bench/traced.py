"""Traced in-process run of the graphelim CLI, for per-layer numbers.

Started by `bench/run.py --trace 1` as a child process:

    python3 bench/traced.py COMMANDS_JSON TRACE_JSON [--no-rebind]

COMMANDS_JSON holds a list of CLI argument lists (gen, experiment,
report). Each is passed to `graphelim.cli.main` inside a `cli.main`
span. Before that, the public functions each layer's caller looks up at
call time are rebound, from this file only, to wrappers that record a
span (name, start, end, parent) and the counts measured at that
boundary. Nothing in the package itself changes. With `--no-rebind`
only the `cli.main` spans are recorded; that run is the untraced
baseline the tracing overhead is measured against. Spans stay in memory
and are written to TRACE_JSON when the commands have finished.

`layer_metrics` turns the spans of one run into the per-layer metrics.
It needs no graphelim import, so `bench/run.py` uses it directly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# bytes per dense n x n entry held by the oracle: float64 value + bool pattern
_DENSE_ENTRY_BYTES = 8 + 1
# the synthesized system and the factorization's working copy of it
_DENSE_COPIES = 2

_PRUNE_SPANS = {
    "prune_random": "pruning.rand",
    "prune_tgreedy": "pruning.tgreedy",
    "prune_keyframe": "pruning.kf",
    "prune_decimate": "pruning.dec",
}


class Tracer:
    """Spans of one single-threaded run, nested by call order."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, counts=None):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            span["counts"] = counts(out, *args)
        return out

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced


def _clique_counts(tree, *_):
    return {
        "cliques": len(tree.cliques),
        "max_front_dim": max(c.frontal_dim + c.separator_dim for c in tree.cliques),
    }


def _fill_counts(trace, *_):
    return {"fill": trace.total_fill_edges()}


def _cholesky_counts(result, system, *_):
    return {
        "mults": result.mult_count,
        "dense_bytes": system.n**2 * _DENSE_ENTRY_BYTES * _DENSE_COPIES,
    }


def _prune_counts(result, log, *_):
    return {"kept": result.retained, "original": log.total_observations()}


def rebind(tracer: Tracer) -> None:
    """Point each layer's call-time lookups at traced wrappers."""
    from graphelim import cli, cliquetree, elimination, experiment, graph, pruning

    def swap(owner, attr, name, counts=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counts))

    swap(experiment, "run_experiment", "experiment.run_experiment",
         lambda rows, *_: {"rows": len(rows)})
    swap(experiment, "simulate_trajectory", "simulate.simulate_trajectory")
    swap(cli, "simulate_trajectory", "simulate.simulate_trajectory")
    swap(experiment, "build_graph", "simulate.build_graph",
         lambda g, *_: {"factors": len(g.factors)})
    orderings = experiment.ORDERING_FUNCTIONS
    orderings["min_degree"] = tracer.wrap(
        "elimination.min_degree_ordering", orderings["min_degree"]
    )
    swap(experiment, "elimination_complexity", "elimination.elimination_complexity")
    for module in (elimination, cliquetree):
        swap(module, "simulate_elimination", "elimination.simulate_elimination", _fill_counts)
    swap(experiment, "build_clique_tree", "cliquetree.build_clique_tree", _clique_counts)
    swap(experiment, "synthesize_system", "oracle.synthesize_system",
         lambda system, *_: {"scalars": system.n})
    swap(experiment, "cholesky_count", "oracle.cholesky_count", _cholesky_counts)
    for attr, name in _PRUNE_SPANS.items():
        swap(pruning, attr, name, _prune_counts)
    swap(graph.FactorGraph, "adjacency", "graph.adjacency")
    swap(graph, "graph_to_text", "graph.graph_to_text")
    swap(cli, "write_report_svg", "plotting.write_report_svg")


# -- per-layer metrics ---------------------------------------------------------

# name -> unit; `.s` is a span's inclusive time, `self_s` excludes child spans
LAYER_UNITS = {
    "experiment.run_experiment.s": "s",
    "experiment.self_s": "s",
    "experiment.rows": "count",
    "simulate.build_graph.s": "s",
    "simulate.build_graph.calls": "count",
    "simulate.build_graph.factors": "count",
    "simulate.simulate_trajectory.s": "s",
    "elimination.min_degree_ordering.s": "s",
    "elimination.min_degree_ordering.calls": "count",
    "elimination.elimination_complexity.s": "s",
    "elimination.simulate_elimination.s": "s",
    "elimination.simulate_elimination.calls": "count",
    "elimination.fill_edges": "count",
    "cliquetree.build_clique_tree.self_s": "s",
    "cliquetree.cliques": "count",
    "cliquetree.max_front_dim": "count",
    "oracle.cholesky_count.s": "s",
    "oracle.cholesky_count.calls": "count",
    "oracle.synthesize_system.s": "s",
    "oracle.scalars": "count",
    "oracle.mult_count": "count",
    "oracle.mults_per_s": "1/s",
    "oracle.dense_bytes": "B-computed",
    "pruning.tgreedy.s": "s",
    "pruning.rand.s": "s",
    "pruning.dec.s": "s",
    "pruning.kf.s": "s",
    "pruning.retained_ratio": "ratio",
    "graph.adjacency.s": "s",
    "graph.adjacency.calls": "count",
    "graph.graph_to_text.s": "s",
    "plotting.write_report_svg.s": "s",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_s": "s",
}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name: duration minus direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
    return dict(out)


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose process took `wall_s`.

    `trace.overhead_s` needs an untraced baseline and is added by the caller.
    """
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        counts[s["name"]].append(s["counts"])
    own = self_times(spans)

    def summed(name, key):
        return sum(c[key] for c in counts[name])

    def largest(name, key):
        return max((c[key] for c in counts[name]), default=0)

    cholesky_s = total["oracle.cholesky_count"]
    mults = summed("oracle.cholesky_count", "mults")
    kept = sum(summed(name, "kept") for name in _PRUNE_SPANS.values())
    original = sum(summed(name, "original") for name in _PRUNE_SPANS.values())
    startup = wall_s - total["cli.main"]
    layer_self = sum(t for name, t in own.items() if name != "cli.main")
    return {
        "experiment.run_experiment.s": total["experiment.run_experiment"],
        "experiment.self_s": own.get("experiment.run_experiment", 0.0),
        "experiment.rows": summed("experiment.run_experiment", "rows"),
        "simulate.build_graph.s": total["simulate.build_graph"],
        "simulate.build_graph.calls": calls["simulate.build_graph"],
        "simulate.build_graph.factors": summed("simulate.build_graph", "factors"),
        "simulate.simulate_trajectory.s": total["simulate.simulate_trajectory"],
        "elimination.min_degree_ordering.s": total["elimination.min_degree_ordering"],
        "elimination.min_degree_ordering.calls": calls["elimination.min_degree_ordering"],
        "elimination.elimination_complexity.s": total["elimination.elimination_complexity"],
        "elimination.simulate_elimination.s": total["elimination.simulate_elimination"],
        "elimination.simulate_elimination.calls": calls["elimination.simulate_elimination"],
        "elimination.fill_edges": summed("elimination.simulate_elimination", "fill"),
        "cliquetree.build_clique_tree.self_s": own.get("cliquetree.build_clique_tree", 0.0),
        "cliquetree.cliques": summed("cliquetree.build_clique_tree", "cliques"),
        "cliquetree.max_front_dim": largest("cliquetree.build_clique_tree", "max_front_dim"),
        "oracle.cholesky_count.s": cholesky_s,
        "oracle.cholesky_count.calls": calls["oracle.cholesky_count"],
        "oracle.synthesize_system.s": total["oracle.synthesize_system"],
        "oracle.scalars": summed("oracle.synthesize_system", "scalars"),
        "oracle.mult_count": mults,
        "oracle.mults_per_s": mults / cholesky_s if cholesky_s else 0.0,
        "oracle.dense_bytes": largest("oracle.cholesky_count", "dense_bytes"),
        **{f"{name}.s": total[name] for name in _PRUNE_SPANS.values()},
        "pruning.retained_ratio": kept / original if original else 1.0,
        "graph.adjacency.s": total["graph.adjacency"],
        "graph.adjacency.calls": calls["graph.adjacency"],
        "graph.graph_to_text.s": total["graph.graph_to_text"],
        "plotting.write_report_svg.s": total["plotting.write_report_svg"],
        "cli.startup_s": startup,
        "trace.wall_s": wall_s,
        "trace.unaccounted_share": 1.0 - (layer_self + startup) / wall_s,
    }


def command_seconds(spans: list[dict], commands: tuple[str, ...]) -> float:
    """Summed `cli.main` time of the given subcommands (e.g. experiment, report)."""
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == "cli.main" and s["counts"]["command"] in commands
    )


def main(argv: list[str]) -> int:
    commands_path, trace_path, *flags = argv
    if flags not in ([], ["--no-rebind"]):
        print("usage: traced.py COMMANDS_JSON TRACE_JSON [--no-rebind]", file=sys.stderr)
        return 2
    commands = json.loads(Path(commands_path).read_text(encoding="utf-8"))
    tracer = Tracer()
    from graphelim import cli

    if not flags:
        rebind(tracer)
    codes = []
    for args in commands:
        code = tracer.call(
            "cli.main", cli.main, (args,),
            counts=lambda rc, argv: {"command": argv[0], "exit_code": rc},
        )
        codes.append(code)
        if code != 0:
            break
    Path(trace_path).write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
