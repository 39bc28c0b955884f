import json
import math

import pytest

from graphelim import cliquetree, elimination, experiment
from graphelim.cliquetree import build_clique_tree, ec_of_clique_tree
from graphelim.elimination import elimination_complexity, min_degree_ordering
from graphelim.experiment import ExperimentSpec, run_experiment
from graphelim.plotting import render_report_svg
from graphelim.pruning import apply_policy
from graphelim.report import (
    CSV_HEADER,
    read_report_csv,
    rows_to_csv,
    summarize,
    write_report_csv,
)
from graphelim.simulate import (
    Region,
    SimConfig,
    Trajectory,
    Visibility,
    WorstCaseParams,
    build_graph,
    from_json_object,
    simulate_trajectory,
    to_json,
)


def tiny_sim(seed=3):
    return SimConfig(
        n_frames=20,
        trajectory=Trajectory(3.0, 12.0, 1.0),
        landmark_count=12,
        landmark_region=Region(0.0, 20.0, -6.0, 6.0),
        visibility=Visibility(18.0, math.pi),
        seed=seed,
    )


def tiny_spec(**overrides):
    base = dict(
        sim=tiny_sim(),
        policies=("full", "kf", "dec"),
        rates=(2,),
        seeds=(0,),
        ordering="min_degree",
        oracle=False,
        frame_stride=4,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec()
    with pytest.raises(ValueError):
        tiny_spec(policies=("bogus",))
    with pytest.raises(ValueError):
        tiny_spec(rates=())
    with pytest.raises(ValueError):
        tiny_spec(ordering="alphabetical")


@pytest.mark.parametrize(
    "field, value",
    [
        ("oracle", "no"),
        ("oracle", 1),
        ("rates", "ab"),
        ("rates", 4),
        ("rates", ["a"]),
        ("seeds", [1.5]),
        ("frame_stride", None),
        ("ordering", ["min_degree"]),
        ("policies", ["kf", "full", "kf"]),
        ("rates", [2, 2]),
        ("seeds", [0, 3, 0]),
    ],
)
def test_spec_json_rejects_bad_fields(field, value):
    data = json.loads(to_json(tiny_spec()))
    data[field] = value
    with pytest.raises(ValueError, match=field):
        from_json_object(ExperimentSpec, data, "spec")


def test_spec_json_rejects_unknown_worst_case_key():
    data = json.loads(to_json(tiny_spec(sim=None, worst_case=WorstCaseParams(3, 2))))
    data["worst_case"]["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        from_json_object(ExperimentSpec, data, "spec")


def test_spec_json_rejects_null_record():
    data = json.loads(to_json(tiny_spec()))
    data["sim"]["visibility"] = None
    with pytest.raises(ValueError, match="visibility must be a JSON object, got None"):
        from_json_object(ExperimentSpec, data, "spec")


@pytest.mark.parametrize("key", ["oracel", "max_frames"])
def test_spec_json_rejects_unknown_key(key):
    data = json.loads(to_json(tiny_spec()))
    data[key] = 5
    with pytest.raises(ValueError, match=key):
        from_json_object(ExperimentSpec, data, "spec")


def test_spec_json_roundtrip():
    spec = tiny_spec(oracle=True)
    assert from_json_object(ExperimentSpec, json.loads(to_json(spec)), "spec") == spec
    wc_spec = tiny_spec(sim=None, worst_case=WorstCaseParams(9, 5, 1, 1))
    assert from_json_object(ExperimentSpec, json.loads(to_json(wc_spec)), "spec") == wc_spec


def test_worst_case_single_frame_row():
    spec = ExperimentSpec(
        worst_case=WorstCaseParams(1, 0, 6, 3),
        policies=("full",),
        rates=(1,),
    )
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0].ec_block == 216  # one pose block, dim six


def test_keyframe_rate_one_equals_full():
    spec = tiny_spec(policies=("full", "kf"), rates=(1,))
    rows = run_experiment(spec)
    full = {r.frame_idx: r for r in rows if r.policy == "full"}
    kf = {r.frame_idx: r for r in rows if r.policy == "kf"}
    assert full.keys() == kf.keys()
    for t, row in full.items():
        assert kf[t].ec_block == row.ec_block
        assert kf[t].ec_bt == row.ec_bt
        assert kf[t].n_vars == row.n_vars
        assert kf[t].predicted_ec == row.predicted_ec


def test_rows_rederivable_from_library():
    spec = tiny_spec(oracle=True)
    rows = run_experiment(spec)
    target = next(r for r in rows if r.policy == "dec" and r.frame_idx == 19)
    cfg = spec.sim
    log = apply_policy(simulate_trajectory(cfg), "dec", 2).log
    g = build_graph(log.prefix(19), d_x=cfg.d_x, d_l=cfg.d_l, min_obs_to_init=cfg.min_obs_to_init)
    order = min_degree_ordering(g)
    assert target.n_vars == g.n_vars
    assert target.n_factors == len(g.factors)
    assert target.ec_block == elimination_complexity(g, order)
    assert target.ec_bt == ec_of_clique_tree(build_clique_tree(g, order))


def test_each_row_builds_one_elimination_tree(monkeypatch):
    calls = []
    real = elimination.elimination_tree

    def counting(*args, **kwargs):
        calls.append(args[0].n_vars)
        return real(*args, **kwargs)

    for module in (elimination, cliquetree, experiment):
        monkeypatch.setattr(module, "elimination_tree", counting)
    rows = run_experiment(tiny_spec(policies=("full", "rand", "tgreedy", "kf", "dec")))
    measured = [r.n_vars for r in rows if not r.policy.startswith("pred_")]
    assert len(measured) > 20
    assert sorted(calls) == sorted(measured)


def test_overlay_rows_present_and_scaled():
    spec = tiny_spec()
    rows = run_experiment(spec)
    full = {r.frame_idx: r.ec_block for r in rows if r.policy == "full"}
    pred_kf = [r for r in rows if r.policy == "pred_kf"]
    pred_dec = [r for r in rows if r.policy == "pred_dec"]
    assert pred_kf and pred_dec
    for row in pred_kf:
        assert row.ec_block == pytest.approx(full[row.frame_idx] / 8)
    for row in pred_dec:
        assert row.ec_block == pytest.approx(full[row.frame_idx] * 9 / 4)


def test_prediction_column_only_for_closed_form_policies():
    rows = run_experiment(tiny_spec(policies=("full", "rand", "kf", "dec"), seeds=(1,)))
    for r in rows:
        if r.policy in ("full", "kf", "dec"):
            assert r.predicted_ec is not None
        else:
            assert r.predicted_ec is None


def test_csv_roundtrip_and_header(tmp_path):
    rows = run_experiment(tiny_spec())
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    assert read_report_csv(path) == rows


def test_byte_identical_reruns():
    spec = tiny_spec(oracle=True)
    a = rows_to_csv(run_experiment(spec))
    b = rows_to_csv(run_experiment(spec))
    assert a == b


def test_summary_groups_policies():
    rows = run_experiment(tiny_spec(oracle=True))
    summaries = summarize(rows)
    names = [(s.policy, s.rate) for s in summaries]
    assert names == [("full", 1), ("kf", 2), ("dec", 2)]
    assert all(s.mean_oracle_mult is not None for s in summaries)


def test_svg_structure():
    rows = run_experiment(tiny_spec())
    svg = render_report_svg(rows)
    # three solid curves plus two dashed overlays
    assert svg.count("<polyline") == 5
    assert svg.count('stroke-dasharray="7 5"') == 4  # 2 curves + 2 legend swatches
    assert svg.startswith("<svg")


def test_final_frame_decimation_ratio_bounded():
    from graphelim.simulate import default_config

    spec = ExperimentSpec(
        sim=default_config(seed=1, n_frames=80, landmark_count=50),
        policies=("full", "dec"),
        rates=(4,),
        frame_stride=79,
    )
    rows = run_experiment(spec)
    last = max(r.frame_idx for r in rows)
    full = next(r.ec_block for r in rows if r.policy == "full" and r.frame_idx == last)
    dec = next(r.ec_block for r in rows if r.policy == "dec" and r.frame_idx == last)
    assert dec / full <= 9 / 16
