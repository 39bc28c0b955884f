"""Command-line front door: `graphelim {gen,experiment,report}`.

The CLI adds no computation of its own; every CSV row it writes is
re-derivable by calling the library directly. Each command imports only
what it runs, inside the functions that run it: `report` reads a CSV and
writes its summary and plot with the standard library alone, `gen` adds
numpy, `graph` and `simulate` only, and `experiment` adds the compute
modules too. Exit codes: 0 success, 1 bad input, 2 a bug, such as a
`ValueError` from an experiment once its spec is built, or the oracle's
`FactorCheckError`. GRAPHELIM_LOG sets the log level: debug, info,
warning (the default), warn, error, critical, fatal or notset, in any
case; any other value exits 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .plotting import write_report_svg
from .report import (
    POLICY_NAMES,
    read_report_csv,
    summarize,
    summary_to_csv,
    write_report_csv,
)

if TYPE_CHECKING:
    from .simulate import ObservationLog, SimConfig, WorstCaseParams

# sorted(elimination.ORDERING_FUNCTIONS), held here so that building the
# parser imports no numpy; a test pins the two equal
ORDERING_NAMES = ("landmark_first", "min_degree", "natural")

# the level names `logging` defines, in any case; spelt out, since Python 3.10
# has no `logging.getLevelNamesMapping`
_LOG_LEVELS = ("debug", "info", "warning", "warn", "error", "critical", "fatal", "notset")


def simulate_trajectory(cfg: SimConfig) -> ObservationLog:
    """`simulate.simulate_trajectory`, looked up here at call time, so that
    `bench/traced.py` can rebind this name before `main` runs to time `gen`."""
    from . import simulate

    return simulate.simulate_trajectory(cfg)


class _ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse usage errors are validation errors
        raise _ValidationError(message)


def _add_source_args(p: argparse.ArgumentParser, for_experiment: bool) -> None:
    p.add_argument(
        "--worst-case",
        nargs=2,
        type=int,
        metavar=("NX", "NL"),
        help="worst-case graph/log with NX poses and NL landmarks",
    )
    if for_experiment:
        p.add_argument(
            "--manifest", type=Path, help="simulation manifest written by `gen`"
        )
    sim = p.add_argument_group("simulation options")
    sim_actions = [
        sim.add_argument("--frames", type=int, help="simulated frame count"),
        sim.add_argument("--landmarks", type=int, help="simulated landmark count"),
        sim.add_argument("--sim-seed", type=int, help="simulation RNG seed"),
        sim.add_argument("--amplitude", type=float),
        sim.add_argument("--wavelength", type=float),
        sim.add_argument("--step-size", type=float),
        sim.add_argument("--range", dest="max_range", type=float),
        sim.add_argument("--fov-deg", type=float),
        sim.add_argument(
            "--region",
            nargs=4,
            type=float,
            metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
            help="landmark bounding box (default: trajectory strip)",
        ),
        sim.add_argument("--min-obs", type=int),
    ]
    p.add_argument("--d-x", type=int, help="pose block dimension")
    p.add_argument("--d-l", type=int, help="landmark block dimension")
    # flag -> destination of the options only a simulation reads
    p.set_defaults(sim_options={a.option_strings[0]: a.dest for a in sim_actions})


def _reject_options(args: argparse.Namespace, source: str, options: dict) -> None:
    """Name the given options that the chosen source would ignore."""
    given = [flag for flag, dest in options.items() if getattr(args, dest) is not None]
    if given:
        raise _ValidationError(f"{', '.join(given)} cannot be used with {source}")


def _given(args: argparse.Namespace, **fields: str) -> dict:
    """The options the user set, keyed by the field each sets; lists become tuples."""
    return {
        name: tuple(v) if isinstance(v, list) else v
        for option, name in fields.items()
        if (v := getattr(args, option)) is not None
    }


def _sim_config_from_args(args: argparse.Namespace) -> SimConfig:
    """`default_config`'s desk simulation with the options the user set."""
    from .simulate import Region, default_config

    cfg = default_config(
        **_given(args, frames="n_frames", landmarks="landmark_count", sim_seed="seed")
    )
    trajectory = replace(
        cfg.trajectory,
        **_given(args, amplitude="amplitude", wavelength="wavelength", step_size="step"),
    )
    if args.region is None:  # the strip under the trajectory
        region = replace(cfg.landmark_region, x_max=cfg.n_frames * trajectory.step)
    else:
        region = Region(*args.region)
    fov = {} if args.fov_deg is None else {"field_of_view": math.radians(args.fov_deg)}
    return replace(
        cfg,
        trajectory=trajectory,
        landmark_region=region,
        visibility=replace(cfg.visibility, **_given(args, max_range="max_range"), **fov),
        **_given(args, min_obs="min_obs_to_init", d_x="d_x", d_l="d_l"),
    )


def _worst_case_from_args(args: argparse.Namespace) -> WorstCaseParams:
    from .simulate import WorstCaseParams

    _reject_options(args, "--worst-case", args.sim_options)
    n_x, n_l = args.worst_case
    return WorstCaseParams(n_x, n_l, **_given(args, d_x="d_x", d_l="d_l"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphelim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset (log + manifest)")
    _add_source_args(gen, for_experiment=False)
    gen.add_argument("--out", type=Path, required=True, help="output directory")

    run = sub.add_parser("experiment", help="run a policy grid, write report.csv")
    _add_source_args(run, for_experiment=True)
    run.add_argument(
        "--policy",
        action="append",
        choices=POLICY_NAMES,
        help="policy to evaluate (repeatable; default: all)",
    )
    run.add_argument(
        "--rate", action="append", type=int, help="pruning rate (repeatable; default 4 6)"
    )
    run.add_argument(
        "--seed", action="append", type=int, help="pruning seed for rand (repeatable)"
    )
    run.add_argument("--ordering", choices=ORDERING_NAMES)
    run.add_argument(
        "--oracle",
        action="store_true",
        default=None,
        help="also run the counting factorization oracle per row",
    )
    run.add_argument("--stride", type=int, help="frame sampling stride")
    run.add_argument("--out", type=Path, required=True)

    rep = sub.add_parser("report", help="render SVG plot + summary from a CSV")
    rep.add_argument("--csv", type=Path, required=True)
    rep.add_argument("--out", type=Path, required=True)
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    from .graph import save_graph
    from .simulate import save_log, to_json, worst_case_graph, worst_case_log

    out: Path = args.out
    if args.worst_case:
        params = _worst_case_from_args(args)
        out.mkdir(parents=True, exist_ok=True)
        graph = worst_case_graph(params.n_x, params.n_l, params.d_x, params.d_l)
        save_graph(graph, out / "graph.txt")
        save_log(worst_case_log(params.n_x, params.n_l), out / "dataset.log")
        (out / "manifest.json").write_text(
            to_json({"worst_case": params}), encoding="utf-8", newline="\n"
        )
        print(f"wrote worst-case dataset ({graph!r}) to {out}")
    else:
        cfg = _sim_config_from_args(args)
        out.mkdir(parents=True, exist_ok=True)
        log = simulate_trajectory(cfg)
        save_log(log, out / "dataset.log")
        (out / "manifest.json").write_text(to_json(cfg), encoding="utf-8", newline="\n")
        print(
            f"wrote simulated dataset ({len(log.frames)} frames,"
            f" {log.total_observations()} observations) to {out}"
        )
    return 0


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object as a dict; a key given twice is an error, not the last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def _source_from_args(args: argparse.Namespace) -> dict:
    """The spec's source as the one keyword that sets it: `sim` or `worst_case`."""
    from .simulate import SimConfig, WorstCaseParams, from_json_object

    if args.manifest is not None:
        dims = {"--d-x": "d_x", "--d-l": "d_l"}
        _reject_options(
            args, "--manifest", {"--worst-case": "worst_case", **args.sim_options, **dims}
        )
        data = json.loads(
            args.manifest.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys
        )
        if isinstance(data, dict) and "worst_case" in data:
            unknown = sorted(set(data) - {"worst_case"})
            if unknown:
                raise ValueError(f"unknown worst-case manifest keys {unknown}")
            params = from_json_object(WorstCaseParams, data["worst_case"], "worst_case")
            return {"worst_case": params}
        return {"sim": from_json_object(SimConfig, data, "simulation config")}
    if args.worst_case:
        return {"worst_case": _worst_case_from_args(args)}
    return {"sim": _sim_config_from_args(args)}


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiment  # imported here, so that `gen` never loads it
    from .simulate import to_json

    spec = experiment.ExperimentSpec(
        **_source_from_args(args),
        **_given(
            args, policy="policies", rate="rates", seed="seeds", ordering="ordering",
            oracle="oracle", stride="frame_stride",
        ),
    )
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "spec.json").write_text(to_json(spec), encoding="utf-8", newline="\n")
    try:
        rows = experiment.run_experiment(spec)
    except ValueError as exc:  # the spec is valid, so this is a bug: exit 2
        raise RuntimeError(exc) from exc
    write_report_csv(rows, out / "report.csv")
    print(f"wrote {len(rows)} rows to {out / 'report.csv'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = read_report_csv(args.csv)
    if not rows:
        raise ValueError(f"no rows to plot in {args.csv}")
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_report_svg(rows, out / "report.svg")
    summaries = summarize(rows)
    (out / "summary.csv").write_text(
        summary_to_csv(summaries), encoding="utf-8", newline="\n"
    )
    print(f"{'policy':>10} {'rate':>4} {'final cost':>14} {'mean oracle mults':>18}")
    for s in summaries:
        mean = "-" if s.mean_oracle_mult is None else f"{s.mean_oracle_mult:14.0f}"
        print(f"{s.policy:>10} {s.rate:>4} {s.final_ec:14.0f} {mean:>18}")
    print(f"wrote {out / 'report.svg'} and {out / 'summary.csv'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("GRAPHELIM_LOG", "warning")
    parser = _build_parser()
    try:
        if level.lower() not in _LOG_LEVELS:
            names = ", ".join(_LOG_LEVELS)
            raise _ValidationError(f"GRAPHELIM_LOG must be one of {names}, got {level!r}")
        logging.basicConfig(level=getattr(logging, level.upper()))
        args = parser.parse_args(argv)
    except _ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_report(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
