"""Landmark-SLAM graph generators and the trajectory simulator.

Two substrates feed the pruning experiments:

* the worst-case landmark-SLAM graph, in which every landmark is observed
  from every pose and consecutive poses are chained by odometry;
* a 2D sinusoidal trajectory with a forward-facing ranged sensor, which
  produces a time-ordered observation log that pruning policies filter.

Graphs carry structure only; ground-truth geometry exists solely inside
the simulator to decide visibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from itertools import chain
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .graph import FactorGraph, Kind
from .report import ParseError

DEFAULT_POSE_DIM = 6
DEFAULT_LANDMARK_DIM = 3


@dataclass(frozen=True)
class Trajectory:
    amplitude: float
    wavelength: float
    step: float


@dataclass(frozen=True)
class Region:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def area(self) -> float:
        return max(self.x_max - self.x_min, 0.0) * max(self.y_max - self.y_min, 0.0)


@dataclass(frozen=True)
class Visibility:
    max_range: float
    field_of_view: float  # radians, centered on the heading


# an infinite range or field of view lifts that limit; an infinite wavelength
# drives a straight line
_MAY_BE_INFINITE = {
    ("trajectory", "wavelength"), ("visibility", "max_range"), ("visibility", "field_of_view")
}


@dataclass(frozen=True)
class SimConfig:
    n_frames: int
    trajectory: Trajectory
    landmark_count: int
    landmark_region: Region
    visibility: Visibility
    min_obs_to_init: int = 2
    d_x: int = DEFAULT_POSE_DIM
    d_l: int = DEFAULT_LANDMARK_DIM
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("n_frames", self.n_frames, 2)
        check_int("min_obs_to_init", self.min_obs_to_init, 2)
        check_int("landmark_count", self.landmark_count, 0)
        check_int("d_x", self.d_x, 1)
        check_int("d_l", self.d_l, 1)
        check_int("seed", self.seed, 0)
        for part in ("trajectory", "landmark_region", "visibility"):
            for key, value in asdict(getattr(self, part)).items():
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not number or math.isnan(value):
                    raise ValueError(f"{part}.{key} must be a number, got {value!r}")
                if math.isinf(value) and (part, key) not in _MAY_BE_INFINITE:
                    raise ValueError(f"{part}.{key} must be finite, got {value!r}")
        if self.landmark_region.area() <= 0:
            raise ValueError("landmark_region must have positive area")
        if self.trajectory.step <= 0 or self.trajectory.wavelength <= 0:
            raise ValueError("trajectory step and wavelength must be positive")
        if self.visibility.max_range < 0 or self.visibility.field_of_view < 0:
            raise ValueError("visibility parameters must be nonnegative")


@dataclass(frozen=True)
class WorstCaseParams:
    n_x: int
    n_l: int
    d_x: int = DEFAULT_POSE_DIM
    d_l: int = DEFAULT_LANDMARK_DIM

    def __post_init__(self) -> None:
        for name, low in (("n_x", 1), ("n_l", 0), ("d_x", 1), ("d_l", 1)):
            check_int(f"worst_case.{name}", getattr(self, name), low)


def check_int(name: str, value, low: int) -> None:
    """Reject a non-integer (bools included) or one below `low`, naming the field."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def from_json_object(cls, data, name: str):
    """`cls(**data)` for a decoded JSON object, naming any unknown or missing keys.

    A field typed as a record is decoded the same way under its own name,
    unless it is typed `X | None` and holds null; a JSON list becomes a
    tuple where the field is typed as one. Keys that `data` leaves out take
    the dataclass's defaults; the type's own `__post_init__` checks the values.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"missing {name} keys {missing}")
    hints = get_type_hints(cls)
    values = {}
    for key, value in data.items():
        kind = hints[key]
        if type(None) in get_args(kind):  # X | None, where null stays None
            kind = None if value is None else get_args(kind)[0]
        if is_dataclass(kind):
            value = from_json_object(kind, value, key)
        elif get_origin(kind) is tuple and isinstance(value, list):
            value = tuple(value)
        values[key] = value
    return cls(**values)


def to_json(obj) -> str:
    """A record, or a dict of records, as sorted, indented JSON text with a final LF.

    An infinite limit is written as 1e999, a JSON number that reads back as
    infinity, since RFC 8259 has no `Infinity`. The only strings a record
    holds are validated policy and ordering names, so no string is rewritten.
    """
    text = json.dumps(obj, default=asdict, indent=2, sort_keys=True)
    return text.replace("Infinity", "1e999") + "\n"


def default_config(
    seed: int = 1, n_frames: int = 150, landmark_count: int = 80
) -> SimConfig:
    """Desk-scale defaults: sinusoid over a strip of uniformly placed landmarks.

    The wide-aperture long-range sensor keeps observation windows long
    relative to the pruning rates, the regime in which the structural
    differences between the policies actually express themselves.
    """
    step = 1.0
    return SimConfig(
        n_frames=n_frames,
        trajectory=Trajectory(amplitude=5.0, wavelength=30.0, step=step),
        landmark_count=landmark_count,
        landmark_region=Region(0.0, n_frames * step, -10.0, 10.0),
        visibility=Visibility(max_range=120.0, field_of_view=1.5 * math.pi),
        seed=seed,
    )


@dataclass(frozen=True)
class Frame:
    """One timestep: the landmarks observed from the pose at `index`.

    Odometry is implicit: consecutive frames of a log are chained, so a
    filtered log with dropped frames composes odometry across the gaps.
    """

    index: int
    observations: tuple[int, ...]


@dataclass(frozen=True)
class ObservationLog:
    frames: tuple[Frame, ...]

    def first_seen(self) -> dict[int, int]:
        """Frame index of the first observation of each observed landmark."""
        first: dict[int, int] = {}
        for f in self.frames:
            for lm in f.observations:
                first.setdefault(lm, f.index)
        return first

    def total_observations(self) -> int:
        return sum(len(f.observations) for f in self.frames)

    def observations(self) -> list[tuple[int, int]]:
        """All (frame_index, landmark_id) pairs in log order."""
        return [(f.index, lm) for f in self.frames for lm in f.observations]

    def prefix(self, upto_frame: int) -> "ObservationLog":
        """Frames with index <= `upto_frame` (for incremental cost curves)."""
        return ObservationLog(tuple(f for f in self.frames if f.index <= upto_frame))


# -- generators --------------------------------------------------------------


def worst_case_graph(
    n_x: int,
    n_l: int,
    d_x: int = DEFAULT_POSE_DIM,
    d_l: int = DEFAULT_LANDMARK_DIM,
) -> FactorGraph:
    """Worst-case landmark-SLAM graph: every landmark seen from every pose.

    Poses 0..n_x-1 are chained by odometry; landmarks n_x..n_x+n_l-1 each
    share a binary factor with every pose. No landmark-landmark and no
    non-consecutive pose-pose factors exist. It is the graph of
    `worst_case_log` with every landmark initialized on its first sighting.
    """
    WorstCaseParams(n_x, n_l, d_x, d_l)  # rejects a bad size, naming it
    return build_graph(worst_case_log(n_x, n_l), d_x, d_l, min_obs_to_init=1)


def worst_case_log(n_frames: int, n_landmarks: int) -> ObservationLog:
    """Observation log in which every frame observes every landmark."""
    all_lms = tuple(range(n_landmarks))
    return ObservationLog(tuple(Frame(i, all_lms) for i in range(n_frames)))


def simulate_trajectory(config: SimConfig) -> ObservationLog:
    """Drive the sinusoid and record which landmarks each frame can see.

    Landmark positions are sampled uniformly in the configured region with
    a seeded generator, so the log is a pure function of the config. A
    landmark is observed when it lies strictly within `max_range` and
    within half the field of view of the forward-facing heading.
    """
    rng = np.random.default_rng(config.seed)
    region = config.landmark_region
    landmarks = rng.uniform(
        low=[region.x_min, region.y_min],
        high=[region.x_max, region.y_max],
        size=(config.landmark_count, 2),
    )
    traj = config.trajectory
    omega = 2.0 * math.pi / traj.wavelength
    max_range = config.visibility.max_range
    half_fov = config.visibility.field_of_view / 2.0

    frames = []
    for i in range(config.n_frames):
        px = i * traj.step
        py = traj.amplitude * math.sin(omega * px)
        heading = math.atan2(traj.amplitude * omega * math.cos(omega * px), 1.0)
        visible = []
        for lm_id in range(config.landmark_count):
            dx = landmarks[lm_id, 0] - px
            dy = landmarks[lm_id, 1] - py
            if math.hypot(dx, dy) >= max_range:
                continue
            bearing = math.atan2(dy, dx)
            if abs(math.remainder(bearing - heading, math.tau)) <= half_fov:
                visible.append(lm_id)
        frames.append(Frame(i, tuple(visible)))
    return ObservationLog(tuple(frames))


def build_graph(
    log: ObservationLog,
    d_x: int = DEFAULT_POSE_DIM,
    d_l: int = DEFAULT_LANDMARK_DIM,
    min_obs_to_init: int = 2,
) -> FactorGraph:
    """Turn a (possibly filtered) log into a factor graph.

    One pose per retained frame, odometry chaining consecutive retained
    frames, and one landmark variable per landmark with at least
    `min_obs_to_init` retained observations (one binary factor per frame
    that observes it). Landmarks below the threshold never enter the graph.
    Frame indices must strictly increase, as in every log this package
    reads or makes; the graph depends only on the frames' order.
    """
    n_x = len(log.frames)
    pose = np.repeat(np.arange(n_x), [len(f.observations) for f in log.frames])
    landmark = np.fromiter(chain(*(f.observations for f in log.frames)), np.int64)
    n_obs = np.unique(landmark, return_counts=True)[1]
    kept = n_obs >= min_obs_to_init
    key = np.sort(landmark * n_x + pose)  # by (landmark, pose): a factor per distinct key
    tied = np.repeat(kept, n_obs) & (np.diff(key, prepend=key[:1] - 1) != 0)
    lm_var = np.repeat(n_x - 1 + np.cumsum(kept), n_obs)
    ties = np.stack([key[tied] % max(n_x, 1), lm_var[tied]], axis=1).ravel()
    flat = np.concatenate([np.repeat(np.arange(n_x), 2)[1:-1], ties])  # odometry, then ties
    n_l = int(kept.sum())
    kinds, dims = [Kind.POSE] * n_x + [Kind.LANDMARK] * n_l, [d_x] * n_x + [d_l] * n_l
    return FactorGraph(kinds, dims, flat, np.arange(0, flat.size + 1, 2))


# -- serialization -----------------------------------------------------------
#
# Log format, UTF-8, LF: a `FRAME <idx>` line opens each frame, followed by
# one `OBS <landmark_id>` line per observation. Comments start with '#'.
# Frame indices strictly increase, ids are nonnegative and a frame lists a
# landmark at most once; `log_from_text` rejects a line that breaks this.


def log_to_text(log: ObservationLog) -> str:
    lines = []
    for f in log.frames:
        lines.append(f"FRAME {f.index}")
        for lm in f.observations:
            lines.append(f"OBS {lm}")
    return "\n".join(lines) + ("\n" if lines else "")


def save_log(log: ObservationLog, path: str | Path) -> None:
    Path(path).write_text(log_to_text(log), encoding="utf-8", newline="\n")


def log_from_text(text: str, source: str = "<string>") -> ObservationLog:
    frames: list[Frame] = []
    cur_idx: int | None = None
    cur_obs: dict[int, None] = {}  # insertion-ordered set of the frame's landmarks

    def flush() -> None:
        if cur_idx is not None:
            frames.append(Frame(cur_idx, tuple(cur_obs)))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "FRAME" and len(fields) == 2:
                idx = int(fields[1])
                if idx <= (-1 if cur_idx is None else cur_idx):
                    raise ValueError(f"frame index {idx} is negative or not increasing")
                flush()
                cur_idx = idx
                cur_obs = {}
            elif fields[0] == "OBS" and len(fields) == 2:
                if cur_idx is None:
                    raise ValueError("OBS before any FRAME")
                lm = int(fields[1])
                if lm < 0:
                    raise ValueError(f"negative landmark id {lm}")
                if lm in cur_obs:
                    raise ValueError(f"landmark {lm} repeated in frame {cur_idx}")
                cur_obs[lm] = None
            else:
                raise ValueError(f"unknown record {line!r}")
        except ValueError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    flush()
    return ObservationLog(tuple(frames))
