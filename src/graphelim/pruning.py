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
                 reduced Laplacian).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .simulate import Frame, ObservationLog

POLICY_NAMES = ("full", "rand", "tgreedy", "kf", "dec")

_REFRESH_EVERY = 64


@dataclass(frozen=True)
class PruneResult:
    log: ObservationLog
    policy: str
    rate: int
    retained: int
    removed: int


def _result(policy, rate, original, frames):
    log = ObservationLog(tuple(frames), original.n_landmarks)
    kept = log.total_observations()
    return PruneResult(log, policy, rate, kept, original.total_observations() - kept)


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
    frames = [
        Frame(
            f.index,
            tuple(lm for lm in f.observations if f.index % r == offsets[lm]),
        )
        for f in log.frames
    ]
    return _result("dec", r, log, frames)


def prune_keyframe(log: ObservationLog, r: int) -> PruneResult:
    """Keep frames with index divisible by r; drop everything else."""
    _check_rate(r)
    frames = [f for f in log.frames if f.index % r == 0]
    return _result("kf", r, log, frames)


def prune_random(log: ObservationLog, r: int, seed: int = 0) -> PruneResult:
    """Uniformly random subset, count-matched to decimation at the same r.

    Each landmark's first observation is always retained; otherwise
    landmarks would drop out of the graph entirely and the comparison
    would confound node count with edge structure.
    """
    _check_rate(r)
    _check_distinct(log)
    target = prune_decimate(log, r).retained
    first = log.first_seen()
    forced = {(frame, lm) for lm, frame in first.items()}
    pool = [obs for obs in log.observations() if obs not in forced]
    extra = target - len(forced)
    if extra < 0:
        raise ValueError("decimation budget below one observation per landmark")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pool), size=extra, replace=False) if extra else []
    keep = forced | {pool[i] for i in picked}
    frames = [
        Frame(f.index, tuple(lm for lm in f.observations if (f.index, lm) in keep))
        for f in log.frames
    ]
    return _result("rand", r, log, frames)


def prune_tgreedy(
    log: ObservationLog, r: int, budget: int | None = None
) -> PruneResult:
    """Greedy tree-connectivity selection, count-matched to decimation.

    Starting from the odometry chain plus one observation per landmark
    (the initialization floor), repeatedly add the observation edge that
    maximizes the spanning-tree count of the retained variable-adjacency
    graph. By the matrix-tree theorem the count is det of the reduced
    Laplacian, and adding edge (u, v) scales it by 1 + q with
    q = b^T L^{-1} b, b = e_u - e_v, so each step just maximizes the
    quadratic form; the inverse is maintained by rank-one updates and
    periodically refreshed from scratch to contain roundoff.
    """
    _check_rate(r)
    if not log.frames:
        raise ValueError("tgreedy needs a log with at least one frame")
    _check_distinct(log)
    if budget is None:
        budget = prune_decimate(log, r).retained
    first = log.first_seen()
    landmarks = sorted(first)
    n_frames = len(log.frames)
    frame_index = {f.index: i for i, f in enumerate(log.frames)}
    lm_index = {lm: n_frames + i for i, lm in enumerate(landmarks)}
    n = n_frames + len(landmarks)

    selected = {(frame, lm) for lm, frame in first.items()}
    if budget < len(selected):
        raise ValueError("budget below one observation per landmark")
    candidates = sorted(o for o in log.observations() if o not in selected)

    # reduced Laplacian: ground vertex 0 (the first pose) removed
    L = np.zeros((n - 1, n - 1))

    def add_edge(a: int, b: int, mat: np.ndarray) -> None:
        ia, ib = a - 1, b - 1
        if ia >= 0:
            mat[ia, ia] += 1.0
        if ib >= 0:
            mat[ib, ib] += 1.0
        if ia >= 0 and ib >= 0:
            mat[ia, ib] -= 1.0
            mat[ib, ia] -= 1.0

    for i in range(n_frames - 1):
        add_edge(i, i + 1, L)
    for frame, lm in selected:
        add_edge(frame_index[frame], lm_index[lm], L)

    remaining = budget - len(selected)
    if remaining and candidates:
        minv = np.linalg.inv(L)
        cu = np.array([frame_index[f] - 1 for f, _ in candidates])
        cv = np.array([lm_index[lm] - 1 for _, lm in candidates])
        alive = np.ones(len(candidates), dtype=bool)
        since_refresh = 0
        for _ in range(min(remaining, len(candidates))):
            diag = np.diag(minv)
            gains = np.where(cu >= 0, diag[np.maximum(cu, 0)], 0.0) + diag[cv]
            cross = np.where(cu >= 0, minv[np.maximum(cu, 0), cv], 0.0)
            gains -= 2.0 * cross
            gains[~alive] = -np.inf
            best = int(np.argmax(gains))
            q = gains[best]
            if q <= 0.0:
                # SPD structure forbids this; roundoff has degraded the inverse
                minv = np.linalg.inv(L)
                since_refresh = 0
                diag = np.diag(minv)
                g = (0.0 if cu[best] < 0 else diag[cu[best]]) + diag[cv[best]]
                g -= 0.0 if cu[best] < 0 else 2.0 * minv[cu[best], cv[best]]
                q = g
                if q <= 0.0:
                    raise RuntimeError(
                        "tree-connectivity update is numerically ill-conditioned"
                    )
            frame, lm = candidates[best]
            selected.add((frame, lm))
            alive[best] = False
            b = np.zeros(n - 1)
            if cu[best] >= 0:
                b[cu[best]] = 1.0
            b[cv[best]] -= 1.0
            add_edge(frame_index[frame], lm_index[lm], L)
            w = minv @ b
            minv -= np.outer(w, w) / (1.0 + q)
            since_refresh += 1
            if since_refresh >= _REFRESH_EVERY:
                minv = np.linalg.inv(L)
                since_refresh = 0

    frames = [
        Frame(
            f.index,
            tuple(lm for lm in f.observations if (f.index, lm) in selected),
        )
        for f in log.frames
    ]
    return _result("tgreedy", r, log, frames)


def apply_policy(
    log: ObservationLog, policy: str, rate: int, seed: int = 0
) -> PruneResult:
    if policy == "full":
        return PruneResult(log, "full", 1, log.total_observations(), 0)
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
