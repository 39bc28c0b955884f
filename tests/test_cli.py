import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from graphelim import cli, experiment, oracle
from graphelim.elimination import ORDERING_FUNCTIONS
from graphelim.experiment import ExperimentSpec
from graphelim.oracle import NotPositiveDefiniteError
from graphelim.pruning import POLICY_NAMES
from graphelim.report import CSV_HEADER
from graphelim.simulate import (
    SimConfig,
    WorstCaseParams,
    default_config,
    from_json_object,
    to_json,
)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "graphelim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_gen_worst_case_writes_graph_and_log(tmp_path):
    out = tmp_path / "data"
    proc = run_cli("gen", "--worst-case", "9", "5", "--d-x", "1", "--d-l", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    graph_text = (out / "graph.txt").read_text()
    assert graph_text.count("\nF ") + graph_text.startswith("F ") == 53
    assert len([ln for ln in graph_text.splitlines() if ln.startswith("V ")]) == 14
    assert (out / "dataset.log").exists()
    assert (out / "manifest.json").exists()


def test_gen_sim_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("gen", "--frames", "25", "--landmarks", "10", "--sim-seed", "7")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert (a / "dataset.log").read_bytes() == (b / "dataset.log").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_experiment_pipeline_and_determinism(tmp_path):
    gen_dir = tmp_path / "data"
    assert run_cli("gen", "--frames", "20", "--landmarks", "10", "--out", str(gen_dir)).returncode == 0
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        proc = run_cli(
            "experiment",
            "--manifest", str(gen_dir / "manifest.json"),
            "--policy", "full", "--policy", "kf", "--policy", "dec",
            "--rate", "2",
            "--stride", "4",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]

    report_dir = tmp_path / "rep"
    proc = run_cli("report", "--csv", str(tmp_path / "e1" / "report.csv"), "--out", str(report_dir))
    assert proc.returncode == 0, proc.stderr
    svg = (report_dir / "report.svg").read_text()
    assert svg.count("<polyline") == 5
    assert (report_dir / "summary.csv").read_text().startswith("policy,rate,")


def _choices(command: str, option: str) -> tuple:
    """The choices the CLI parser gives `option` of `command`."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    return tuple(next(a for a in commands[command]._actions if option in a.option_strings).choices)


def test_validation_errors_exit_one(tmp_path):
    assert run_cli("experiment", "--out", str(tmp_path / "x"), "--rate", "0").returncode == 1
    assert run_cli("bogus-command").returncode == 1
    assert run_cli("report", "--csv", str(tmp_path / "missing.csv"), "--out", str(tmp_path)).returncode == 1
    bogus = run_cli("experiment", "--ordering", "bogus", "--out", str(tmp_path / "x"))
    assert bogus.returncode == 1
    assert "invalid choice: 'bogus'" in bogus.stderr
    assert all(name in bogus.stderr for name in ORDERING_FUNCTIONS)
    # the parser's names are static, so building it imports no numpy
    assert (_choices("experiment", "--ordering"), _choices("experiment", "--policy")) == (
        tuple(sorted(ORDERING_FUNCTIONS)), POLICY_NAMES
    )


def test_worst_case_experiment_row_counts(tmp_path):
    out = tmp_path / "wc"
    proc = run_cli(
        "experiment",
        "--worst-case", "9", "5", "--d-x", "1", "--d-l", "1",
        "--policy", "full",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 9  # header + one row per frame


@pytest.mark.parametrize(
    "worst_case, field",
    [
        ({"n_x": 3, "n_l": 2, "bogus": 1}, "bogus"),
        ({"n_x": 3}, "n_l"),
        ({"n_x": "3", "n_l": 2}, "n_x"),
        ({"n_x": 3, "n_l": 2, "d_l": 0}, "d_l"),
        (None, "worst_case"),
    ],
)
def test_bad_worst_case_manifest_exits_one(tmp_path, worst_case, field):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"worst_case": worst_case}))
    proc = run_cli("experiment", "--manifest", str(manifest), "--out", str(tmp_path / "x"))
    assert proc.returncode == 1, proc.stderr
    assert field in proc.stderr


def test_worst_case_manifest_with_unknown_key_exits_one(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"worst_case": {"n_x": 4, "n_l": 3}, "sed": 3}))
    out = tmp_path / "x"
    proc = run_cli("experiment", "--manifest", str(manifest), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "unknown worst-case manifest keys ['sed']" in proc.stderr
    assert not out.exists()


_SIM_OPTION_VALUES = {
    "--frames": ("9",), "--landmarks": ("2",), "--sim-seed": ("3",),
    "--amplitude": ("2",), "--wavelength": ("5",), "--step-size": ("0.5",),
    "--range": ("4",), "--fov-deg": ("90",), "--region": ("0", "5", "-1", "1"),
    "--min-obs": ("3",),
}


@pytest.mark.parametrize(
    "args, source, ignored",
    [
        (("--manifest", "{manifest}", "--d-x", "2", "--frames", "9"),
         "--manifest", ["--frames", "--d-x"]),
        (("--manifest", "{manifest}", "--worst-case", "3", "4"),
         "--manifest", ["--worst-case"]),
        (("--worst-case", "3", "4", "--frames", "9", "--amplitude", "2"),
         "--worst-case", ["--frames", "--amplitude"]),
    ],
)
def test_experiment_rejects_source_options_the_source_ignores(
    tmp_path, capsys, args, source, ignored
):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"worst_case": {"n_x": 4, "n_l": 3}}))
    out = tmp_path / "x"
    args = [a.format(manifest=manifest) for a in args]
    assert cli.main(["experiment", *args, "--out", str(out)]) == 1
    assert f"{', '.join(ignored)} cannot be used with {source}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, values", _SIM_OPTION_VALUES.items())
def test_gen_worst_case_rejects_simulation_options(tmp_path, capsys, flag, values):
    out = tmp_path / "x"
    assert cli.main(["gen", "--worst-case", "3", "4", flag, *values, "--out", str(out)]) == 1
    assert f"{flag} cannot be used with --worst-case" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, field",
    [
        (("--worst-case", "0", "5"), "n_x"),
        (("--worst-case", "3", "-1"), "n_l"),
        (("--worst-case", "3", "2", "--seed", "-1"), "seeds"),
        (("--worst-case", "4", "3", "--policy", "full", "--policy", "kf",
          "--rate", "2", "--rate", "2"), "rates"),
        (("--worst-case", "4", "3", "--policy", "kf", "--policy", "kf"), "policies"),
        (("--worst-case", "4", "3", "--seed", "1", "--seed", "1"), "seeds"),
    ],
)
def test_bad_experiment_arguments_exit_one(tmp_path, args, field):
    proc = run_cli("experiment", *args, "--out", str(tmp_path / "x"))
    assert proc.returncode == 1, proc.stderr
    assert field in proc.stderr


@pytest.mark.parametrize(
    "args, field",
    [
        (("--worst-case", "0", "5"), "worst_case.n_x"),
        (("--worst-case", "3", "-1"), "worst_case.n_l"),
        (("--worst-case", "3", "2", "--d-x", "0"), "worst_case.d_x"),
        (("--worst-case", "3", "2", "--d-l", "0"), "worst_case.d_l"),
        (("--frames", "1"), "n_frames"),
        (("--min-obs", "1"), "min_obs_to_init"),
        (("--step-size", "nan"), "trajectory.step"),
        (("--region", "0", "10", "0", "inf"), "landmark_region.y_max"),
        (("--amplitude", "nan"), "trajectory.amplitude"),
        (("--fov-deg", "nan"), "visibility.field_of_view"),
        (("--amplitude", "inf"), "trajectory.amplitude"),
        (("--step-size", "inf"), "trajectory.step"),
    ],
)
def test_bad_gen_arguments_exit_one(tmp_path, args, field):
    out = tmp_path / "x"
    proc = run_cli("gen", *args, "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert field in proc.stderr
    assert not out.exists()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _decode(path, cls, name):
    return from_json_object(cls, json.loads(path.read_text(encoding="utf-8")), name)


# The digests pin the exact bytes written (key order, indent, float text, final
# LF), which a comparison against the writer's own output would not catch.
def test_gen_defaults_are_default_config(tmp_path):
    out = tmp_path / "data"
    proc = run_cli("gen", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = out / "manifest.json"
    assert _decode(manifest, SimConfig, "simulation config") == default_config()
    assert _sha256(manifest) == "48efdcd83f6f545e664da8a097d7ab412f26e9ec61a1af382aa97ab0405dfa6a"


def test_gen_worst_case_manifest_bytes(tmp_path):
    assert cli.main(["gen", "--worst-case", "3", "2", "--out", str(tmp_path)]) == 0
    manifest = tmp_path / "manifest.json"
    params = json.loads(manifest.read_text(encoding="utf-8"))["worst_case"]
    assert from_json_object(WorstCaseParams, params, "worst_case") == WorstCaseParams(3, 2)
    assert _sha256(manifest) == "c8812e09822c81ec58b8bd2e4c7704ba73d4927597bf7be2fe0c231a7e70c107"


def test_gen_infinite_range_writes_strict_json(tmp_path):
    # RFC 8259 has no Infinity, so an infinite limit is written as 1e999
    args = ["gen", "--frames", "20", "--landmarks", "10", "--range", "inf"]
    assert cli.main([*args, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "manifest.json").read_text(encoding="utf-8")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    cfg = from_json_object(SimConfig, json.loads(text, parse_constant=reject), "simulation config")
    assert cfg.visibility.max_range == math.inf
    assert to_json(cfg) == text
    # a manifest written before, with the limit spelt Infinity, still loads
    old = json.loads(text.replace("1e999", "Infinity"))
    assert from_json_object(SimConfig, old, "simulation config") == cfg


def test_experiment_defaults_are_spec_defaults(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "run_experiment", lambda spec: [])
    assert cli.main(["experiment", "--out", str(tmp_path)]) == 0
    spec = tmp_path / "spec.json"
    assert _decode(spec, ExperimentSpec, "spec") == ExperimentSpec(sim=default_config())
    assert _sha256(spec) == "74e44f09a5dc5457d0ec224bdfbfeabf6343165dbce2a4011abfd809081a21ef"


def test_failure_inside_a_validated_experiment_exits_two(tmp_path, monkeypatch, capsys):
    def fail(spec):
        raise NotPositiveDefiniteError("nonpositive pivot -1 at elimination index 3")

    monkeypatch.setattr(experiment, "run_experiment", fail)
    assert cli.main(["experiment", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "internal error: nonpositive pivot -1 at elimination index 3\n"


def test_failed_factor_check_exits_two(tmp_path, monkeypatch, capsys):
    # fronts that skip their descendants' products factor the wrong matrix
    monkeypatch.setattr(oracle, "_subtract_products", lambda front, index, tails: None)
    args = ["experiment", "--worst-case", "4", "6", "--policy", "full", "--oracle"]
    assert cli.main([*args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: factor check failed: |R^T R x - A x| / |A x| = ")
    assert err.endswith(" exceeds 1e-10\n")


def test_manifest_with_null_record_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen", "--frames", "20", "--landmarks", "10", "--out", str(data)]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["trajectory"] = None
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "x"
    args = ["experiment", "--manifest", str(data / "manifest.json"), "--out", str(out)]
    assert cli.main(args) == 1
    assert "trajectory must be a JSON object, got None" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "opening, key", [("{", "seed"), ('"trajectory": {', "amplitude")], ids=["top", "nested"]
)
def test_manifest_with_repeated_key_exits_one(tmp_path, capsys, opening, key):
    data = tmp_path / "data"
    assert cli.main(["gen", "--frames", "20", "--landmarks", "10", "--out", str(data)]) == 0
    manifest = data / "manifest.json"
    text = manifest.read_text()
    manifest.write_text(text.replace(opening, f'{opening}\n"{key}": 5,', 1))
    out = tmp_path / "x"
    assert cli.main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert f"repeated key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_with_non_numeric_field_exits_one(tmp_path):
    data = tmp_path / "data"
    assert run_cli("gen", "--frames", "20", "--landmarks", "10", "--out", str(data)).returncode == 0
    manifest = json.loads((data / "manifest.json").read_text())
    for value in ("x", math.nan):
        manifest["trajectory"]["amplitude"] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("experiment", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "x"))
        assert proc.returncode == 1, proc.stderr
        assert "trajectory.amplitude" in proc.stderr


@pytest.mark.parametrize("key", ["n_frame", "sed"])
def test_manifest_with_unknown_key_exits_one(tmp_path, key):
    data = tmp_path / "data"
    assert run_cli("gen", "--frames", "20", "--landmarks", "10", "--out", str(data)).returncode == 0
    manifest = json.loads((data / "manifest.json").read_text())
    manifest[key] = 5
    (data / "manifest.json").write_text(json.dumps(manifest))
    proc = run_cli("experiment", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "x"))
    assert proc.returncode == 1, proc.stderr
    assert repr(key) in proc.stderr


_GOOD_ROW = "0,full,1,0,1,0,216.000,216,,216"


@pytest.mark.parametrize(
    "row",
    [
        "0,full,1,0,1,0,216.000,216,",  # short row
        "0,full,1,0,1,0,216.000,216,,216,7",  # long row
        "0,foo,1,0,1,0,216.000,216,,216",  # unknown policy
        "0,full,1,0,1,0,big,216,,216",  # bad number
    ],
)
def test_malformed_report_csv_exits_one(tmp_path, row):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text(f"{','.join(CSV_HEADER)}\n{_GOOD_ROW}\n{row}\n")
    out = tmp_path / "rep"
    proc = run_cli("report", "--csv", str(csv_path), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert f"{csv_path}:3:" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("first_lines", ["a,b\n", ""], ids=["wrong-header", "empty"])
def test_bad_report_csv_header_exits_one_at_line_one(tmp_path, first_lines):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text(first_lines)
    out = tmp_path / "rep"
    proc = run_cli("report", "--csv", str(csv_path), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert f"{csv_path}:1: unexpected CSV header" in proc.stderr
    assert not out.exists()


def test_header_only_report_csv_exits_one(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text(f"{','.join(CSV_HEADER)}\n")
    out = tmp_path / "rep"
    assert cli.main(["report", "--csv", str(csv_path), "--out", str(out)]) == 1
    assert "no rows to plot" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("ec_block", "nan"),
        ("ec_block", "inf"),
        ("ec_block", "1e400"),
        ("ec_block", "-5"),
        ("rate", "0"),
        ("frame_idx", "-1"),
        ("seed", "-1"),
        ("n_vars", "-1"),
        ("n_factors", "-2"),
        ("ec_bt", "-216"),
        ("oracle_mult_count", "-1"),
        ("predicted_ec", "-216"),
    ],
)
def test_out_of_range_report_field_exits_one(tmp_path, field, value):
    row = dict(zip(CSV_HEADER, _GOOD_ROW.split(",")))
    row[field] = value
    csv_path = tmp_path / "report.csv"
    csv_path.write_text(f"{','.join(CSV_HEADER)}\n{_GOOD_ROW}\n{','.join(row.values())}\n")
    proc = run_cli("report", "--csv", str(csv_path), "--out", str(tmp_path / "rep"))
    assert proc.returncode == 1, proc.stderr
    assert f"{csv_path}:3: {field} " in proc.stderr


# every name `graphelim` exported when its __init__ imported each module eagerly
_PACKAGE_EXPORTS = (
    "CholeskyCount", "Clique", "CliqueTree", "EliminationTrace", "ExperimentSpec",
    "Factor", "FactorGraph", "Frame", "Kind", "NotPositiveDefiniteError",
    "ObservationLog", "ParseError", "PruneResult", "Region", "ReportRow", "SimConfig",
    "SparseSystem", "Step", "Trajectory", "Variable", "Visibility", "WorstCaseParams",
    "apply_policy", "build_clique_tree", "build_graph", "cholesky_count",
    "decimation_offsets", "default_config", "ec_of_clique_tree",
    "elimination_complexity", "elimination_tree", "format_clique_tree",
    "from_json_object", "graph_from_text", "graph_to_text", "landmark_first_ordering",
    "load_graph", "load_ordering", "log_from_text", "log_to_text",
    "min_degree_ordering", "natural_ordering", "optimal_ordering_bruteforce",
    "pearson_correlation", "predicted_ec_decimate", "predicted_ec_full",
    "predicted_ec_keyframe", "prune_decimate", "prune_keyframe", "prune_random",
    "prune_tgreedy", "read_report_csv", "rows_to_csv", "run_experiment", "save_graph",
    "save_log", "save_ordering", "scalar_mult_count", "simulate_elimination",
    "simulate_trajectory", "summarize", "synthesize_system",
    "to_json", "trace_to_csv", "worst_case_graph", "worst_case_log", "write_report_csv",
)


def test_report_loads_no_numpy_and_exports_resolve_lazily(tmp_path):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text(f"{','.join(CSV_HEADER)}\n{_GOOD_ROW}\n")
    out = tmp_path / "rep"
    script = f"""
import importlib
import sys

import graphelim
import graphelim.cli

assert graphelim.cli.main(["report", "--csv", {str(csv_path)!r}, "--out", {str(out)!r}]) == 0
assert "numpy" not in sys.modules, "graphelim report imported numpy"
for name in {_PACKAGE_EXPORTS!r}:
    value = getattr(graphelim, name)
    assert value is getattr(importlib.import_module(value.__module__), name), name
    assert name in dir(graphelim), name
assert graphelim.graph.ParseError is graphelim.ParseError
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").is_file() and (out / "report.svg").is_file()


@pytest.mark.parametrize(
    "source", [("--frames", "20", "--landmarks", "10"), ("--worst-case", "3", "4")],
    ids=["desk", "worst-case"],
)
def test_gen_loads_no_compute_module(tmp_path, source):
    out = tmp_path / "data"
    script = f"""
import sys

from graphelim import cli

assert cli.main(["gen", *{source!r}, "--out", {str(out)!r}]) == 0
compute = ("experiment", "elimination", "cliquetree", "oracle", "pruning")
loaded = [name for name in compute if f"graphelim.{{name}}" in sys.modules]
assert not loaded, f"graphelim gen imported {{loaded}}"
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").is_file() and (out / "dataset.log").is_file()


@pytest.mark.parametrize(
    "level, code", [("basic_format", 1), ("nonsense", 1), ("root", 1), ("DEBUG", 0), ("warn", 0)]
)
def test_log_level_must_be_a_logging_level_name(tmp_path, level, code):
    csv_path = tmp_path / "report.csv"
    csv_path.write_text(f"{','.join(CSV_HEADER)}\n{_GOOD_ROW}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "graphelim", "report", "--csv", str(csv_path),
         "--out", str(tmp_path / "rep")],
        capture_output=True, text=True, env={**os.environ, "GRAPHELIM_LOG": level},
    )
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == (
            "error: GRAPHELIM_LOG must be one of debug, info, warning, warn, error,"
            f" critical, fatal, notset, got {level!r}\n"
        )
        assert not (tmp_path / "rep").exists()


def test_bench_rebinding_points(tmp_path):
    # bench/traced.py rebinds these two names of `cli` before calling `main`
    csv_path = tmp_path / "report.csv"
    csv_path.write_text(f"{','.join(CSV_HEADER)}\n{_GOOD_ROW}\n")
    script = f"""
import sys

from graphelim import cli

original = cli.simulate_trajectory
assert "numpy" not in sys.modules, "reading cli.simulate_trajectory imported numpy"
calls = []

def traced_simulate(cfg):
    calls.append(cfg)
    return original(cfg)

def traced_svg(rows, path):
    calls.append(path)

cli.simulate_trajectory = traced_simulate
cli.write_report_svg = traced_svg
args = ["--frames", "20", "--landmarks", "10", "--out", {str(tmp_path / "data")!r}]
assert cli.main(["gen", *args]) == 0
assert len(calls) == 1 and calls[0].n_frames == 20, calls
assert cli.main(["report", "--csv", {str(csv_path)!r}, "--out", {str(tmp_path / "rep")!r}]) == 0
assert len(calls) == 2 and calls[1].name == "report.svg", calls
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "rep" / "report.svg").exists()
