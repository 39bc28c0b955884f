"""graphelim benchmark: one workload through the real CLI, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload desk-grid --seed 1 --seconds 30 --trace 0

With `--trace 0` the workload's dataset is generated several times
(`graphelim gen`, the set-up), then `graphelim experiment` and
`graphelim report` run as child processes, over and over until
`--seconds` are used up. It prints the end-to-end metrics (median wall
time, set-up time, peak memory) with their units and sample counts, and
checks every output. With `--trace 1` the same commands run in-process
under `bench/traced.py`, once without and then at least twice with the
layer spans, and it prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A run (one `gen`, or one
experiment + report pipeline) fails on a nonzero exit code or on any
failed output check; `error_rate` is failed / attempted. Workloads never
run concurrently: a second benchmark process in the same checkout exits
with an error. Outputs, spans and a result record with the environment go
to `.bench_work/<workload>/`.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import traced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
# set-up runs `gen` at least SETUP_MIN times and until SETUP_SECONDS have
# passed or SETUP_MAX runs are done; setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 3.0
MIN_TRACED_PASSES = 2

CSV_HEADER = [
    "frame_idx", "policy", "rate", "seed", "n_vars", "n_factors",
    "ec_block", "ec_bt", "oracle_mult_count", "predicted_ec",
]
SUMMARY_HEADER = "policy,rate,final_ec,mean_oracle_mult"
OUTPUT_FILES = ("report.csv", "summary.csv", "report.svg")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


@dataclass(frozen=True)
class Workload:
    """CLI arguments of one workload; paths and the seed are added per run."""

    name: str
    gen: tuple[str, ...]
    experiment: tuple[str, ...]
    rows: int  # data rows of report.csv; the seed does not change it
    seeded: bool  # the workload seed is the simulation seed

    def commands(self, seed: int, data: Path, out: Path) -> list[list[str]]:
        sim_seed = ["--sim-seed", str(seed)] if self.seeded else []
        return [
            ["gen", *self.gen, *sim_seed, "--out", str(data)],
            ["experiment", "--manifest", str(data / "manifest.json"),
             *self.experiment, "--out", str(out)],
            ["report", "--csv", str(out / "report.csv"), "--out", str(out)],
        ]


def policy_args(*names: str) -> tuple[str, ...]:
    return tuple(arg for name in names for arg in ("--policy", name))


DESK = ("--frames", "150", "--landmarks", "80")

# Why these three: desk-oracle is the paper's figure workload and spends
# most of its time in the counting oracle; desk-grid bypasses the oracle
# and spreads its time over many small graphs (ordering, build_graph,
# clique tree, cost, tgreedy); worstcase makes a few huge, dense graphs,
# so the same elimination code runs as a few big calls. desk-oracle's
# stride keeps one experiment near 7 s on a 2-core x86 box, so a 30 s run
# holds several pipelines.
WORKLOADS = {
    "desk-oracle": Workload(
        "desk-oracle",
        gen=DESK,
        experiment=(*policy_args("full", "kf", "dec"), "--rate", "4", "--rate", "6",
                    "--ordering", "min_degree", "--oracle", "--stride", "50"),
        rows=36,
        seeded=True,
    ),
    "desk-grid": Workload(
        "desk-grid",
        gen=DESK,
        experiment=(*policy_args("full", "rand", "tgreedy", "kf", "dec"), "--seed", "0",
                    "--rate", "4", "--rate", "6", "--ordering", "min_degree",
                    "--stride", "5"),
        rows=403,
        seeded=True,
    ),
    "worstcase": Workload(
        "worstcase",
        gen=("--worst-case", "300", "600"),
        experiment=(*policy_args("full", "kf", "dec"), "--rate", "4",
                    "--ordering", "min_degree", "--stride", "300"),
        rows=10,
        seeded=False,
    ),
}


# -- child processes -----------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run `argv` with the checkout's sources; return (exit code, wall s, peak RSS MiB)."""
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_cli(args: list[str], log: Path) -> tuple[int, float, float]:
    return run_child([sys.executable, "-m", "graphelim", *args], log)


# -- output checks ---------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_digests(workload: Workload, seed: int) -> dict[str, str]:
    """Stored digests of the seed code's outputs, where they apply to `seed`."""
    if workload.seeded and seed != DEFAULT_SEED:
        return {}
    stored = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    return stored.get(workload.name, {})


def check_dataset(data: Path, expected: dict[str, str]) -> tuple[list[str], dict[str, str]]:
    if not data.is_dir():
        return [f"gen wrote no {data}"], {}
    digests = {p.name: _sha256(p) for p in sorted(data.iterdir())}
    problems = [
        f"{name}: sha256 {digests.get(name, 'missing')} != stored {want}"
        for name, want in expected.items()
        if name not in OUTPUT_FILES and digests.get(name) != want
    ]
    return problems, digests


def check_outputs(
    workload: Workload, out: Path, expected: dict[str, str]
) -> tuple[list[str], dict[str, str]]:
    """Problems found in report.csv / summary.csv / report.svg, and their digests."""
    missing = [name for name in OUTPUT_FILES if not (out / name).is_file()]
    if missing:
        return [f"missing outputs {missing}"], {}
    digests = {name: _sha256(out / name) for name in OUTPUT_FILES}
    problems = [
        f"{name}: sha256 {digests[name]} != stored {expected[name]}"
        for name in OUTPUT_FILES
        if name in expected and digests[name] != expected[name]
    ]
    try:
        problems += _check_report_csv(workload, out / "report.csv")
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        if not summary or summary[0] != SUMMARY_HEADER or len(summary) < 2:
            problems.append("summary.csv has no header or no rows")
        if not (out / "report.svg").read_text(encoding="utf-8").rstrip().endswith("</svg>"):
            problems.append("report.svg is not a complete SVG document")
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"outputs do not parse: {exc!r}")
    return problems, digests


def _check_report_csv(workload: Workload, path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    if not records or records[0] != CSV_HEADER:
        return ["report.csv header differs"]
    rows = [dict(zip(CSV_HEADER, rec)) for rec in records[1:]]
    problems = []
    if len(rows) != workload.rows:
        problems.append(f"report.csv has {len(rows)} rows, expected {workload.rows}")
    measured = [r for r in rows if not r["policy"].startswith("pred_")]
    for r in rows:
        int(r["frame_idx"]), int(r["rate"]), int(r["seed"]), float(r["ec_block"])
    for r in measured:
        int(r["n_vars"]), int(r["n_factors"]), int(r["ec_bt"])
        if "--oracle" in workload.experiment:
            int(r["oracle_mult_count"])
    if workload.seeded and measured:
        last = max(int(r["frame_idx"]) for r in measured)
        final = {
            (r["policy"], int(r["rate"])): float(r["ec_block"])
            for r in measured
            if int(r["frame_idx"]) == last
        }
        full = final[("full", 1)]
        for rate in sorted(rate for policy, rate in final if policy == "kf"):
            kf, dec = final[("kf", rate)], final[("dec", rate)]
            if not kf < dec <= full:
                problems.append(
                    f"final-frame ec_block breaks kf < dec <= full at rate {rate}:"
                    f" {kf} {dec} {full}"
                )
    return problems


# -- environment -------------------------------------------------------------------


def environment() -> dict[str, object]:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=False)
            sha = res.stdout.strip() or sha
        except OSError:
            pass
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


# -- measurement ---------------------------------------------------------------------


@dataclass
class Tally:
    """Runs attempted and failed, with the reasons for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, code: int, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}", *problems]
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(workload: Workload, seed: int, work: Path, tally: Tally) -> list[float]:
    """Generate the dataset several times; return each `gen` wall time."""
    data = work / "data"
    expected = expected_digests(workload, seed)
    times, first = [], None
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_SECONDS):
        i = len(times)
        shutil.rmtree(data, ignore_errors=True)
        gen = workload.commands(seed, data, work / "out")[0]
        code, wall, _ = run_cli(gen, work / f"gen-{i}.log")
        times.append(wall)
        problems, digests = [], None
        if code == 0:
            problems, digests = check_dataset(data, expected)
        if first is not None and digests != first:
            problems.append("dataset differs from the first gen of this run")
        first = first or digests
        tally.record(f"gen {i}", code, problems)
    return times


def measure(workload: Workload, seed: int, seconds: float, work: Path, tally: Tally):
    """End-to-end samples: setup times, experiment+report walls, experiment RSS."""
    setup_times = setup(workload, seed, work, tally)
    data, out = work / "data", work / "out"
    _, experiment, report = workload.commands(seed, data, out)
    expected = expected_digests(workload, seed)
    walls, rss, iteration_s, first = [], [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        _fresh(out)
        n = len(walls)
        code, exp_wall, exp_rss = run_cli(experiment, work / f"experiment-{n}.log")
        rep_code, rep_wall, _ = (
            run_cli(report, work / f"report-{n}.log") if code == 0 else (0, 0.0, 0.0)
        )
        problems, digests = [], None
        if code == rep_code == 0:
            problems, digests = check_outputs(workload, out, expected)
        if first is not None and digests != first:
            problems.append("outputs differ from the first pipeline of this run")
        first = first or digests
        tally.record(f"pipeline {n}", code or rep_code, problems)
        walls.append(exp_wall + rep_wall)
        rss.append(exp_rss)
        iteration_s.append(time.perf_counter() - began)
        if time.perf_counter() + statistics.median(iteration_s) > deadline:
            break
    return {
        "wall_s": walls,
        "setup_s": setup_times,
        "peak_rss_mib": rss,
    }


def measure_traced(workload: Workload, seed: int, seconds: float, work: Path, tally: Tally):
    """Per-layer samples from traced in-process passes, plus one untraced pass.

    The untraced pass runs between the first two traced ones, so a drift in
    machine speed during the run does not read as tracing overhead.
    """
    data, out = work / "data", work / "out"
    commands_json = work / "commands.json"
    commands_json.write_text(json.dumps(workload.commands(seed, data, out)), encoding="utf-8")
    expected = expected_digests(workload, seed)
    timed = ("experiment", "report")
    counts = [name for name, unit in traced.LAYER_UNITS.items() if unit == "count"]
    plan = ["traced", "untraced"] + ["traced"] * (MIN_TRACED_PASSES - 1)
    untraced_s, passes, traced_wall = 0.0, [], 0.0
    deadline = time.perf_counter() + seconds
    while plan or time.perf_counter() + traced_wall * 1.05 < deadline:
        kind = plan.pop(0) if plan else "traced"
        label = f"{kind}-{len(passes)}"
        shutil.rmtree(data, ignore_errors=True)
        _fresh(out)
        trace_json = work / f"{label}.json"
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(commands_json),
                str(trace_json)] + (["--no-rebind"] if kind == "untraced" else [])
        code, wall, _ = run_child(argv, work / f"{label}.log")
        if code != 0:
            tally.record(label, code, [])
            break
        problems, _ = check_outputs(workload, out, expected)
        spans = json.loads(trace_json.read_text(encoding="utf-8"))["spans"]
        if kind == "untraced":
            untraced_s = traced.command_seconds(spans, timed)
        else:
            metrics = traced.layer_metrics(spans, wall)
            metrics["trace.overhead_s"] = traced.command_seconds(spans, timed)
            differ = [n for n in counts if passes and metrics[n] != passes[0][n]]
            if differ:
                problems.append(f"counts differ from the first traced pass: {differ}")
            passes.append(metrics)
            traced_wall = wall
        tally.record(label, 0, problems)
    for metrics in passes:
        metrics["trace.overhead_s"] -= untraced_s
    return {name: [p[name] for p in passes] for name in traced.LAYER_UNITS}


# -- entry point ---------------------------------------------------------------------


def _median(values: list, unit: str):
    if not values:
        return 0.0
    # a count is reported as one of its exact values, never as an average
    return statistics.median_low(values) if unit == "count" else statistics.median(values)


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphelim" / "cli.py").is_file():
        print(f"error: graphelim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace), WORK / workload.name)
    print(json.dumps(result))
    return 0


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure one workload, print the human-readable report, return the result line."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / ".lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SystemExit("error: another benchmark run is active in this checkout")
        _fresh(work)
        env = environment()
        tally = Tally()
        if trace:
            samples = measure_traced(workload, seed, seconds, work, tally)
            units = traced.LAYER_UNITS
        else:
            samples = measure(workload, seed, seconds, work, tally)
            units = END_TO_END_UNITS
    metrics = {
        name: {"value": _median(values, units[name]), "unit": units[name]}
        for name, values in samples.items()
    }
    print(f"environment: {json.dumps(env)}")
    print(f"workload {workload.name} seed {seed} trace {int(trace)}")
    for args in workload.commands(seed, work / "data", work / "out"):
        print("  graphelim " + " ".join(args))
    for name, m in metrics.items():
        print(f"  {name:40s} {_format(m['value']):>14} {m['unit']:<10} n={len(samples[name])}")
    print(f"  {'error_rate':40s} {tally.failed / max(tally.attempted, 1):>14.6g}"
          f" {'ratio':<10} n={tally.attempted}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {"workload": workload.name, "seed": seed, "trace": trace, "environment": env,
              "commands": workload.commands(seed, work / "data", work / "out"),
              "samples": samples, "problems": tally.problems, **result}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main())
