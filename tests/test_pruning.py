import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphelim.pruning import (
    apply_policy,
    decimation_offsets,
    predicted_ec_decimate,
    predicted_ec_full,
    predicted_ec_keyframe,
    prune_decimate,
    prune_keyframe,
    prune_random,
    prune_tgreedy,
)
from graphelim.simulate import (
    Visibility,
    Frame,
    ObservationLog,
    default_config,
    simulate_trajectory,
    worst_case_log,
)

from helpers import count_spanning_trees, reference_prune_random, reference_prune_tgreedy


def window_log(spans: dict[int, range], n_frames: int) -> ObservationLog:
    frames = []
    for i in range(n_frames):
        obs = tuple(sorted(lm for lm, span in spans.items() if i in span))
        frames.append(Frame(i, obs))
    return ObservationLog(tuple(frames))


@st.composite
def random_window_logs(draw, max_frames: int = 30) -> ObservationLog:
    """A log of 1..max_frames frames, starting at frame 0..3, in which each of
    0..12 landmarks is seen over one (possibly empty) window, listed in a
    drawn order within each frame."""
    n_frames = draw(st.integers(1, max_frames))
    start = draw(st.integers(0, 3))
    spans = []
    for _ in range(draw(st.integers(0, 12))):
        lo = draw(st.integers(0, n_frames))
        spans.append(range(lo, draw(st.integers(lo, n_frames))))
    frames = []
    for i in range(n_frames):
        seen = [lm for lm, span in enumerate(spans) if i in span]
        frames.append(Frame(start + i, tuple(draw(st.permutations(seen)))))
    return ObservationLog(tuple(frames))


@pytest.fixture(scope="module")
def sim_log():
    # short-range sensor: staggered visibility windows, non-trivial offsets
    cfg = default_config(seed=2, n_frames=60, landmark_count=30)
    cfg = replace(cfg, visibility=Visibility(20.0, math.pi / 2))
    return simulate_trajectory(cfg)


# -- decimation ------------------------------------------------------------


def test_decimate_keeps_congruent_frames_offset_zero():
    log = window_log({0: range(0, 9)}, 9)
    kept = prune_decimate(log, 3).log.observations()
    assert [f for f, _ in kept] == [0, 3, 6]


def test_decimate_offset_follows_first_observation():
    log = window_log({0: range(1, 9)}, 9)
    kept = prune_decimate(log, 3).log.observations()
    assert [f for f, _ in kept] == [1, 4, 7]


def test_decimate_rate_one_is_identity():
    log = window_log({0: range(0, 5), 1: range(2, 5)}, 5)
    assert prune_decimate(log, 1).log == log


def test_decimate_partition_property(sim_log):
    for r in (3, 4):
        offsets = decimation_offsets(sim_log, r)
        pruned = prune_decimate(sim_log, r)
        for frame, lm in pruned.log.observations():
            assert frame % r == offsets[lm]


def test_decimate_always_keeps_first_observation(sim_log):
    first = sim_log.first_seen()
    for r in (2, 5):
        kept = set(prune_decimate(sim_log, r).log.observations())
        for lm, frame in first.items():
            assert (frame, lm) in kept


@pytest.mark.parametrize(
    "offsets, message",
    [
        ({0: 0}, "landmark 1 needs a decimation offset in 0..2, got None"),
        ({0: 0, 1: 7}, "landmark 1 needs a decimation offset in 0..2, got 7"),
        ({0: -1, 1: 0}, "landmark 0 needs a decimation offset in 0..2, got -1"),
    ],
)
def test_decimate_rejects_missing_or_out_of_range_offset(offsets, message):
    log = window_log({0: range(0, 9), 1: range(0, 9)}, 9)
    with pytest.raises(ValueError, match=re.escape(message)):
        prune_decimate(log, 3, offsets=offsets)


def test_decimate_explicit_offsets():
    log = window_log({0: range(0, 9), 1: range(0, 9)}, 9)
    res = prune_decimate(log, 3, offsets={0: 0, 1: 2})
    by_lm = {}
    for f, lm in res.log.observations():
        by_lm.setdefault(lm, []).append(f)
    assert by_lm == {0: [0, 3, 6], 1: [2, 5, 8]}


# -- keyframing --------------------------------------------------------------


def test_keyframe_strides():
    log = worst_case_log(9, 2)
    res = prune_keyframe(log, 3)
    assert [f.index for f in res.log.frames] == [0, 3, 6]


def test_keyframe_rate_one_identity(sim_log):
    assert prune_keyframe(sim_log, 1).log == sim_log


def test_keyframe_pose_counts():
    log = worst_case_log(12, 1)
    assert len(prune_keyframe(log, 2).log.frames) == 6
    assert len(prune_keyframe(log, 3).log.frames) == 4


def test_invalid_rate_rejected(sim_log):
    for fn in (prune_decimate, prune_keyframe):
        with pytest.raises(ValueError):
            fn(sim_log, 0)


# -- random ------------------------------------------------------------------


def test_random_rate_one_identity(sim_log):
    assert prune_random(sim_log, 1, seed=3).log == sim_log


def test_random_count_matches_decimation(sim_log):
    for r in (2, 3, 4, 6):
        assert prune_random(sim_log, r, seed=1).retained == prune_decimate(sim_log, r).retained


def test_random_seeds_differ_same_cardinality(sim_log):
    a = prune_random(sim_log, 4, seed=1)
    b = prune_random(sim_log, 4, seed=2)
    assert a.retained == b.retained
    assert a.log != b.log
    assert a.log == prune_random(sim_log, 4, seed=1).log


def test_random_keeps_first_observations(sim_log):
    kept = set(prune_random(sim_log, 5, seed=8).log.observations())
    for lm, frame in sim_log.first_seen().items():
        assert (frame, lm) in kept


@pytest.mark.parametrize(
    "frames",
    [
        (Frame(0, (1, 1)), Frame(1, (1,))),
        (Frame(0, (1, 1, 1)), Frame(2, (1, 1))),
    ],
)
def test_random_rejects_repeated_landmark(frames):
    with pytest.raises(ValueError, match="frame 0 lists landmark 1 twice"):
        prune_random(ObservationLog(frames), 2)


def test_pruned_subset_and_odometry_untouched(sim_log):
    original = set(sim_log.observations())
    for policy in ("rand", "tgreedy", "kf", "dec"):
        res = apply_policy(sim_log, policy, 4, seed=1)
        assert set(res.log.observations()) <= original
        assert len(original) - res.retained == len(original - set(res.log.observations()))
        if policy != "kf":
            assert [f.index for f in res.log.frames] == [f.index for f in sim_log.frames]


# -- tgreedy -----------------------------------------------------------------


def test_tgreedy_full_budget_is_identity(sim_log):
    res = prune_tgreedy(sim_log, 1)
    assert res.log == sim_log


def test_tgreedy_count_matches_decimation(sim_log):
    for r in (3, 6):
        assert prune_tgreedy(sim_log, r).retained == prune_decimate(sim_log, r).retained


def test_tgreedy_rejects_log_without_frames():
    with pytest.raises(ValueError, match="at least one frame"):
        prune_tgreedy(ObservationLog(()), 2)


def test_tgreedy_rejects_repeated_landmark():
    log = ObservationLog((Frame(0, (1,)), Frame(1, (2, 1, 2))))
    with pytest.raises(ValueError, match="frame 1 lists landmark 2 twice"):
        prune_tgreedy(log, 1)


def test_tgreedy_greedy_step_maximizes_tree_count():
    # two poses... three frames, two landmarks; one extra edge beyond the floor
    log = ObservationLog((Frame(0, (0, 1)), Frame(1, (0,)), Frame(2, (0, 1))))
    res = prune_tgreedy(log, 1, budget=3)
    kept = set(res.log.observations())
    base = {(0, 0), (0, 1)}
    chosen = kept - base
    assert len(chosen) == 1

    def tree_count_with(extra):
        edges = [(0, 1), (1, 2)]  # odometry over vertices {0,1,2}; lms are 3, 4
        edges += [(f, 3 + lm) for f, lm in base | set(extra)]
        return count_spanning_trees(5, edges)

    candidates = [(1, 0), (2, 0), (2, 1)]
    best = max(tree_count_with([c]) for c in candidates)
    assert tree_count_with(list(chosen)) == best


def test_tgreedy_tree_count_monotone_under_greedy_growth():
    log = window_log({0: range(0, 4), 1: range(1, 4), 2: range(0, 3)}, 4)
    n = 4 + 3
    base_edges = [(0, 1), (1, 2), (2, 3)]
    first = log.first_seen()
    prev = None
    total = log.total_observations()
    for budget in range(len(first), total + 1):
        res = prune_tgreedy(log, 1, budget=budget)
        edges = base_edges + [(f, 4 + lm) for f, lm in res.log.observations()]
        count = count_spanning_trees(n, edges)
        if prev is not None:
            assert count >= prev
        prev = count


# -- count-matched policies against the reference -----------------------------


@settings(max_examples=200, deadline=None)
@given(log=random_window_logs(), r=st.integers(1, 6), seed=st.integers(0, 3))
def test_count_matched_policies_equal_reference(log, r, seed):
    assert prune_random(log, r, seed) == reference_prune_random(log, r, seed)
    assert prune_tgreedy(log, r) == reference_prune_tgreedy(log, r)


@settings(max_examples=100, deadline=None)
@given(log=random_window_logs(max_frames=8), r=st.integers(1, 6))
def test_tgreedy_equals_reference_at_every_budget(log, r):
    for budget in range(len(log.first_seen()), log.total_observations() + 1):
        assert prune_tgreedy(log, r, budget) == reference_prune_tgreedy(log, r, budget)


@pytest.mark.parametrize("r", range(1, 7))
def test_count_matched_policies_equal_reference_on_sim_log(sim_log, r):
    assert prune_random(sim_log, r, seed=2) == reference_prune_random(sim_log, r, seed=2)
    assert prune_tgreedy(sim_log, r) == reference_prune_tgreedy(sim_log, r)


# -- predictions -------------------------------------------------------------


def test_predicted_full_example():
    assert predicted_ec_full(10, 20, 1, 1) == 3000


def test_predicted_keyframe_rate_one_is_full():
    assert predicted_ec_keyframe(10, 20, 1, 1, 1) == predicted_ec_full(10, 20, 1, 1)


def test_predicted_uses_ceiling_for_partial_strides():
    # 10 frames at r=3 keep keyframes {0,3,6,9}: four poses
    assert predicted_ec_keyframe(10, 0, 1, 1, 3) == (0 + 4) * 16


def test_prediction_validation():
    with pytest.raises(ValueError):
        predicted_ec_full(0, 5, 6, 3)
    with pytest.raises(ValueError):
        predicted_ec_decimate(5, 5, 6, 3, 0)


def test_decimation_ratio_approaches_nine_over_r_squared():
    # pose-dominated regime: landmark mass grows sublinearly in pose count
    for r in (2, 5):
        previous = None
        for n_x in (10**3, 10**5, 10**7):
            n_l = math.isqrt(n_x)
            ratio = predicted_ec_decimate(n_x, n_l, 6, 3, r) / predicted_ec_full(n_x, n_l, 6, 3)
            gap = abs(ratio * r * r - 9.0)
            if previous is not None:
                assert gap < previous
            previous = gap
        assert gap < 0.01
