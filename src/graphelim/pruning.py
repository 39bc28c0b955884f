"""Measurement-selection policies and closed-form cost predictions.

All four policies filter pose-landmark observations out of an
ObservationLog; odometry is never pruned. Rates are interpreted as "keep
roughly one in r":

* ``dec``     -- keep the observation of landmark j at frame i iff
                 i mod r equals the landmark's offset k_j (by default the
                 frame of its first observation mod r, which always
                 retains that first observation);
* ``kf``      -- keep only frames with index divisible by r, composing
                 odometry across the gaps;
* ``rand``    -- keep a uniformly random subset, count-matched to
                 decimation, always retaining each landmark's first
                 observation so landmark initialization survives;
* ``tgreedy`` -- keep the count-matched subset chosen greedily to
                 maximize the spanning-tree count of the retained
                 variable-adjacency graph (matrix-tree theorem on the
                 Laplacian grounded at the first pose, whose inverse
                 is padded with a zero row and column for that pose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .report import POLICY_NAMES
from .simulate import Frame, ObservationLog

_REFRESH_EVERY = 64


@dataclass(frozen=True)
class PruneResult:
    log: ObservationLog
    retained: int


def _result(frames) -> PruneResult:
    log = ObservationLog(tuple(frames))
    return PruneResult(log, log.total_observations())


def _check_rate(r: int) -> None:
    if r < 1:
        raise ValueError(f"pruning rate must be >= 1, got {r}")


def _check_distinct(log: ObservationLog) -> None:
    """Reject a frame that lists a landmark twice; the count-matched
    policies select observations as a set."""
    for f in log.frames:
        if len(set(f.observations)) != len(f.observations):
            lm = next(lm for lm in f.observations if f.observations.count(lm) > 1)
            raise ValueError(f"frame {f.index} lists landmark {lm} twice")


def decimation_offsets(log: ObservationLog, r: int) -> dict[int, int]:
    """Default per-landmark offsets: first-observation frame index mod r."""
    return {lm: first % r for lm, first in log.first_seen().items()}


def prune_decimate(
    log: ObservationLog, r: int, offsets: Mapping[int, int] | None = None
) -> PruneResult:
    """Keep every r-th observation of each landmark, offset per landmark.

    Without explicit `offsets` each landmark keeps the frames congruent to
    its first observation, so its first observation is always retained and
    the landmark enters the optimization as early as possible.
    """
    _check_rate(r)
    if offsets is None:
        offsets = decimation_offsets(log, r)
    else:
        for lm in log.first_seen():
            k = offsets.get(lm)
            if k is None or not 0 <= k < r:
                raise ValueError(
                    f"landmark {lm} needs a decimation offset in 0..{r - 1}, got {k}"
                )
    frames = [
        Frame(
            f.index,
            tuple(lm for lm in f.observations if f.index % r == offsets[lm]),
        )
        for f in log.frames
    ]
    return _result(frames)


def prune_keyframe(log: ObservationLog, r: int) -> PruneResult:
    """Keep frames with index divisible by r; drop everything else."""
    _check_rate(r)
    frames = [f for f in log.frames if f.index % r == 0]
    return _result(frames)


def _count_matched(log: ObservationLog, r: int) -> tuple[int, set, list]:
    """Decimation's retained count at rate r, the floor (each landmark's
    first observation) and every other observation in log order."""
    _check_rate(r)
    _check_distinct(log)
    target = prune_decimate(log, r).retained
    floor = {(frame, lm) for lm, frame in log.first_seen().items()}
    rest = [obs for obs in log.observations() if obs not in floor]
    return target, floor, rest


def _keep(log: ObservationLog, keep) -> PruneResult:
    """`log` with only the observations in `keep`, every frame retained."""
    frames = [
        Frame(f.index, tuple(lm for lm in f.observations if (f.index, lm) in keep))
        for f in log.frames
    ]
    return _result(frames)


def prune_random(log: ObservationLog, r: int, seed: int = 0) -> PruneResult:
    """Uniformly random subset, count-matched to decimation at the same r.

    Each landmark's first observation is always retained; otherwise
    landmarks would drop out of the graph entirely and the comparison
    would confound node count with edge structure.
    """
    target, floor, rest = _count_matched(log, r)
    extra = target - len(floor)
    if extra < 0:
        raise ValueError("decimation budget below one observation per landmark")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(rest), size=extra, replace=False) if extra else []
    return _keep(log, floor | {rest[i] for i in picked})


def prune_tgreedy(
    log: ObservationLog, r: int, budget: int | None = None
) -> PruneResult:
    """Greedy tree-connectivity selection, count-matched to decimation.

    Starting from the odometry chain plus one observation per landmark
    (the initialization floor), repeatedly add the observation edge that
    maximizes the spanning-tree count of the retained variable-adjacency
    graph. By the matrix-tree theorem the count is det of the Laplacian
    grounded at the first pose, and adding edge (u, v) scales it by 1 + q
    with q = M[u, u] + M[v, v] - 2 M[u, v], where M is the grounded inverse
    padded with a zero row and column for the first pose. Each step just
    maximizes q; M takes rank-one updates with w = M[:, u] - M[:, v] and is
    periodically re-inverted to contain roundoff.
    """
    target, floor, rest = _count_matched(log, r)
    if not log.frames:
        raise ValueError("tgreedy needs a log with at least one frame")
    budget = target if budget is None else budget
    if budget < len(floor):
        raise ValueError("budget below one observation per landmark")
    n_frames = len(log.frames)
    frame_index = {f.index: i for i, f in enumerate(log.frames)}
    lm_index = {lm: n_frames + i for i, lm in enumerate(sorted(lm for _, lm in floor))}
    n = n_frames + len(lm_index)
    selected, candidates = set(floor), sorted(rest)

    L = np.zeros((n, n))

    def add_edge(a: int, b: int) -> None:
        L[a, a] += 1.0
        L[b, b] += 1.0
        L[a, b] -= 1.0
        L[b, a] -= 1.0

    def inverse() -> np.ndarray:
        minv = np.zeros((n, n))
        minv[1:, 1:] = np.linalg.inv(L[1:, 1:])
        return minv

    for i in range(n_frames - 1):
        add_edge(i, i + 1)
    for frame, lm in floor:
        add_edge(frame_index[frame], lm_index[lm])

    steps = min(budget - len(floor), len(candidates))
    if steps:
        cu, cv = np.array([(frame_index[f], lm_index[lm]) for f, lm in candidates]).T
        # flat indices of M[u, u], M[v, v] and M[u, v] in the raveled inverse
        uu, vv, uv = cu * (n + 1), cv * (n + 1), cu * n + cv
        outer = np.empty((n, n))

        def gains_of(minv: np.ndarray) -> np.ndarray:
            return minv.take(uu) + minv.take(vv) - 2.0 * minv.take(uv)

        alive = np.ones(len(candidates), dtype=bool)
        minv = inverse()
        since_refresh = 0
        for _ in range(steps):
            gains = gains_of(minv)
            gains[~alive] = -np.inf
            best = int(np.argmax(gains))
            q = gains[best]
            if q <= 0.0:
                # SPD structure forbids this; roundoff has degraded the inverse
                minv = inverse()
                since_refresh = 0
                q = gains_of(minv)[best]
                if q <= 0.0:
                    raise RuntimeError(
                        "tree-connectivity update is numerically ill-conditioned"
                    )
            selected.add(candidates[best])
            alive[best] = False
            u, v = cu[best], cv[best]
            add_edge(u, v)
            w = minv[:, u] - minv[:, v]
            np.multiply.outer(w, w, out=outer)
            outer /= 1.0 + q
            minv -= outer
            since_refresh += 1
            if since_refresh >= _REFRESH_EVERY:
                minv = inverse()
                since_refresh = 0
    return _keep(log, selected)


def apply_policy(
    log: ObservationLog, policy: str, rate: int, seed: int = 0
) -> PruneResult:
    if policy == "full":
        return PruneResult(log, log.total_observations())
    if policy == "rand":
        return prune_random(log, rate, seed)
    if policy == "tgreedy":
        return prune_tgreedy(log, rate)
    if policy == "kf":
        return prune_keyframe(log, rate)
    if policy == "dec":
        return prune_decimate(log, rate)
    raise ValueError(f"unknown policy {policy!r} (expected one of {POLICY_NAMES})")


# -- closed-form predictions -------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_prediction_args(n_x: int, n_l: int, d_x: int, d_l: int, r: int) -> None:
    if n_x < 1 or n_l < 0 or d_x < 1 or d_l < 1 or r < 1:
        raise ValueError("prediction arguments must be positive (n_l may be 0)")


def predicted_ec_full(n_x: int, n_l: int, d_x: int, d_l: int) -> int:
    """Worst-case elimination cost (d_l n_l + d_x n_x) (d_x n_x)^2."""
    _check_prediction_args(n_x, n_l, d_x, d_l, 1)
    return (d_l * n_l + d_x * n_x) * (d_x * n_x) ** 2


def predicted_ec_keyframe(n_x: int, n_l: int, d_x: int, d_l: int, r: int) -> int:
    """Keyframed worst case: n_x/r poses (ceiling: a partial stride still
    contributes a keyframe) against the full landmark set."""
    _check_prediction_args(n_x, n_l, d_x, d_l, r)
    kept = _ceil_div(n_x, r)
    return (d_l * n_l + d_x * kept) * (d_x * kept) ** 2


def predicted_ec_decimate(n_x: int, n_l: int, d_x: int, d_l: int, r: int) -> int:
    """Decimated worst case: all poses retained, observations thinned into
    r offset partitions: (n_l d_l + 9 n_x d_x) (d_x n_x / r)^2."""
    _check_prediction_args(n_x, n_l, d_x, d_l, r)
    kept = _ceil_div(n_x, r)
    return (n_l * d_l + 9 * n_x * d_x) * (d_x * kept) ** 2
