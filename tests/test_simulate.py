import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphelim.elimination import (
    elimination_complexity,
    landmark_first_ordering,
    min_degree_ordering,
)
from graphelim.graph import Kind, ParseError, graph_to_text
from graphelim.pruning import POLICY_NAMES, apply_policy
from graphelim.simulate import (
    Frame,
    ObservationLog,
    Region,
    SimConfig,
    Trajectory,
    Visibility,
    build_graph,
    default_config,
    from_json_object,
    log_from_text,
    log_to_text,
    simulate_trajectory,
    to_json,
    worst_case_graph,
    worst_case_log,
)

from helpers import reference_build_graph, reference_worst_case_graph


def small_config(**overrides):
    base = dict(
        n_frames=40,
        trajectory=Trajectory(3.0, 20.0, 1.0),
        landmark_count=25,
        landmark_region=Region(0.0, 40.0, -8.0, 8.0),
        visibility=Visibility(15.0, math.pi),
        seed=5,
    )
    base.update(overrides)
    return SimConfig(**base)


# -- worst case ---------------------------------------------------------------


def test_worst_case_fig_topology_counts():
    g = worst_case_graph(9, 5, 1, 1)
    assert g.n_vars == 14
    assert len(g.factors) == 8 + 45


def test_worst_case_single_pose():
    g = worst_case_graph(1, 0, 6, 3)
    assert g.n_vars == 1 and not g.factors


@pytest.mark.parametrize(
    "args, field", [((0, 5), "n_x"), ((3, -1), "n_l"), ((3, 2, 0), "d_x"), ((3, 2, 6, 0), "d_l")]
)
def test_worst_case_rejects_bad_size(args, field):
    with pytest.raises(ValueError, match=f"^worst_case.{field} must be an integer >= "):
        worst_case_graph(*args)


def test_worst_case_triangle():
    g = worst_case_graph(2, 1, 1, 1)
    assert len(g.factors) == 3
    assert g.neighbors(2) == {0, 1}


@pytest.mark.parametrize(
    "n_x, n_l", [(300, 600), (120, 240), (3, 4), (2, 0), (1, 5), (1, 0)]
)
def test_worst_case_text_equals_generator_loop(n_x, n_l):
    assert graph_to_text(worst_case_graph(n_x, n_l)) == graph_to_text(
        reference_worst_case_graph(n_x, n_l)
    )


def test_worst_case_structure_invariants():
    g = worst_case_graph(7, 9)
    for f in g.factors:
        kinds = {g.variables[v].kind for v in f.vars}
        if kinds == {Kind.POSE}:
            a, b = sorted(f.vars)
            assert b - a == 1  # only consecutive odometry links
        else:
            assert kinds == {Kind.POSE, Kind.LANDMARK}


# -- simulation ------------------------------------------------------------


def test_zero_range_sees_nothing():
    log = simulate_trajectory(small_config(visibility=Visibility(0.0, math.pi)))
    assert all(not f.observations for f in log.frames)


def test_unbounded_sensor_reduces_to_worst_case():
    cfg = small_config(visibility=Visibility(math.inf, math.tau))
    log = simulate_trajectory(cfg)
    assert log_to_text(log) == log_to_text(worst_case_log(cfg.n_frames, cfg.landmark_count))


def test_determinism_bitwise():
    cfg = small_config()
    a = simulate_trajectory(cfg)
    b = simulate_trajectory(cfg)
    assert log_to_text(a) == log_to_text(b)
    assert log_to_text(simulate_trajectory(small_config(seed=6))) != log_to_text(a)


def test_degenerate_region_rejected():
    with pytest.raises(ValueError):
        simulate_trajectory(small_config(landmark_region=Region(0.0, 0.0, -1.0, 1.0)))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_frames=1)
    with pytest.raises(ValueError):
        small_config(min_obs_to_init=1)
    with pytest.raises(ValueError, match="trajectory.wavelength must be a number"):
        small_config(trajectory=Trajectory(3.0, math.nan, 1.0))
    with pytest.raises(ValueError, match="landmark_region.x_min must be finite"):
        small_config(landmark_region=Region(-math.inf, 40.0, -8.0, 8.0))
    small_config(trajectory=Trajectory(3.0, math.inf, 1.0))  # a straight line


# -- build_graph ------------------------------------------------------------


def test_build_graph_on_full_worst_case_log_matches_generator():
    log = worst_case_log(5, 3)
    assert build_graph(log, d_x=6, d_l=3) == worst_case_graph(5, 3, 6, 3)


def test_build_graph_peak_memory_on_worst_case():
    # tracemalloc peak over the built graph's traced size: 1.94 and 2.13 while
    # the per-observation temporaries and the constructor's key arrays lived
    # until the graph was done, 1.19 and 1.23 now; 300x600 is the bench's graph
    for n_x in (120, 300):
        log = worst_case_log(n_x, 2 * n_x)
        tracemalloc.start()
        try:
            g = build_graph(log, min_obs_to_init=1)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_factors == n_x - 1 + 2 * n_x * n_x
        assert peak <= 1.3 * size, (n_x, peak / size)


@st.composite
def observation_logs(draw):
    """Logs with strictly increasing frame indices; a frame may list a
    landmark more than once."""
    index = draw(st.integers(0, 3))
    frames = []
    for _ in range(draw(st.integers(0, 8))):
        frames.append(Frame(index, tuple(draw(st.lists(st.integers(0, 5), max_size=6)))))
        index += draw(st.integers(1, 3))
    return ObservationLog(tuple(frames))


@settings(max_examples=300, deadline=None)
@given(
    log=observation_logs(),
    policy=st.sampled_from(POLICY_NAMES),
    rate=st.integers(1, 4),
    seed=st.integers(0, 3),
    min_obs=st.integers(1, 3),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 3)),
)
def test_build_graph_matches_reference(log, policy, rate, seed, min_obs, dims):
    sources = [log]
    if log.frames:  # the policies take logs that meet the log text contract
        once = [Frame(f.index, tuple(dict.fromkeys(f.observations))) for f in log.frames]
        sources.append(apply_policy(ObservationLog(tuple(once)), policy, rate, seed).log)
    for source in sources:
        got = build_graph(source, *dims, min_obs_to_init=min_obs)
        want = reference_build_graph(source, *dims, min_obs_to_init=min_obs)
        assert got.variables == want.variables
        assert [f.vars for f in got.factors] == [f.vars for f in want.factors]


def test_landmark_below_threshold_is_absent():
    frames = (Frame(0, (0, 1)), Frame(1, (0,)), Frame(2, (0,)))
    g = build_graph(ObservationLog(frames), d_x=2, d_l=1, min_obs_to_init=2)
    # landmark 1 was seen once; only landmark 0 may enter
    assert g.n_landmarks == 1
    assert g.n_poses == 3


def test_keyframe_subset_chains_odometry():
    frames = (Frame(0, ()), Frame(3, ()), Frame(6, ()))
    g = build_graph(ObservationLog(frames))
    assert g.n_poses == 3
    assert sorted(f.vars for f in g.factors) == [(0, 1), (1, 2)]


def test_prefix_snapshots_nested():
    cfg = small_config()
    log = simulate_trajectory(cfg)
    sizes = [build_graph(log.prefix(t)).n_vars for t in (5, 15, 39)]
    assert sizes == sorted(sizes)
    assert len(log.prefix(10).frames) == 11


def test_realized_cost_bounded_by_worst_case():
    cfg = default_config(seed=1, n_frames=60, landmark_count=30)
    log = simulate_trajectory(cfg)
    realized = build_graph(log, d_x=cfg.d_x, d_l=cfg.d_l)
    worst = worst_case_graph(cfg.n_frames, cfg.landmark_count, cfg.d_x, cfg.d_l)
    for ordering_fn in (min_degree_ordering, landmark_first_ordering):
        assert elimination_complexity(realized, ordering_fn(realized)) <= (
            elimination_complexity(worst, ordering_fn(worst))
        )


# -- serialization ------------------------------------------------------------


def test_log_roundtrip():
    # the short-range sensor never sees landmark 24, the highest id
    for cfg in (small_config(), small_config(visibility=Visibility(5.0, math.pi))):
        log = simulate_trajectory(cfg)
        assert log_from_text(log_to_text(log)) == log


def test_log_parse_error_line():
    with pytest.raises(ParseError) as err:
        log_from_text("FRAME 0\nOBS 1\nOBS x\n")
    assert err.value.line_no == 3


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("FRAME 0\nFRAME 0\n", 2),
        ("FRAME 3\nOBS 1\nFRAME 2\n", 3),
        ("FRAME 0\nOBS 1\nOBS 2\nOBS 1\n", 4),
        ("FRAME -1\n", 1),
        ("FRAME 0\nOBS -2\n", 2),
    ],
)
def test_log_contract_violations_rejected(text, line_no):
    with pytest.raises(ParseError) as err:
        log_from_text(text)
    assert err.value.line_no == line_no


def test_obs_before_frame_rejected():
    with pytest.raises(ParseError):
        log_from_text("OBS 0\n")


def test_config_json_roundtrip():
    cfg = small_config()
    assert from_json_object(SimConfig, json.loads(to_json(cfg)), "simulation config") == cfg


def test_config_json_missing_field():
    with pytest.raises(ValueError):
        from_json_object(SimConfig, {"n_frames": 10}, "simulation config")


@pytest.mark.parametrize("key", ["n_frame", "sed"])
def test_config_json_rejects_unknown_key(key):
    data = json.loads(to_json(small_config()))
    data[key] = 5
    with pytest.raises(ValueError, match=key):
        from_json_object(SimConfig, data, "simulation config")


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_frames", 40.9),
        ("seed", 1.5),
        ("landmark_count", "25"),
        ("d_x", True),
        ("trajectory.amplitude", "x"),
        ("visibility.max_range", None),
        ("landmark_region.x_min", False),
    ],
)
def test_config_json_rejects_wrong_types(field, value):
    data = json.loads(to_json(small_config()))
    *parents, key = field.split(".")
    target = data
    for name in parents:
        target = target[name]
    target[key] = value
    with pytest.raises(ValueError, match=field):
        from_json_object(SimConfig, data, "simulation config")


def test_first_seen_and_counts():
    frames = (Frame(0, (2,)), Frame(1, (2, 5)), Frame(2, (5,)))
    log = ObservationLog(frames)
    assert log.first_seen() == {2: 0, 5: 1}
    assert log.total_observations() == 4
