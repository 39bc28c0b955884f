"""Experiment runner: policy grids over incremental graph prefixes.

For every (policy, rate, seed) cell the runner filters the observation
log once, then for each sampled frame prefix builds the pruned graph,
orders it, builds its elimination tree once and computes both the
per-variable and the clique-tree elimination cost from that one tree,
optionally runs the counting Cholesky oracle, and appends one CSV row.
Prediction overlay rows scale the measured `full` curve by 1/r^3
(keyframing) and 9/r^2 (decimation). Everything is sequential and
seeded, so a spec reproduces its CSV byte for byte.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .cliquetree import build_clique_tree, ec_of_clique_tree
from .elimination import ORDERING_FUNCTIONS, elimination_complexity, elimination_tree
from .graph import FactorGraph, ParseError
from .oracle import cholesky_count, synthesize_system
from .pruning import (
    POLICY_NAMES,
    apply_policy,
    predicted_ec_decimate,
    predicted_ec_full,
    predicted_ec_keyframe,
)
from .simulate import (
    DEFAULT_LANDMARK_DIM,
    DEFAULT_POSE_DIM,
    ObservationLog,
    SimConfig,
    build_graph,
    check_int,
    simulate_trajectory,
    worst_case_log,
)

log = logging.getLogger("graphelim.experiment")

_ROW_ORDER = {
    name: i
    for i, name in enumerate(("full", "rand", "tgreedy", "kf", "dec", "pred_kf", "pred_dec"))
}


@dataclass(frozen=True)
class WorstCaseParams:
    n_x: int
    n_l: int
    d_x: int = DEFAULT_POSE_DIM
    d_l: int = DEFAULT_LANDMARK_DIM

    def __post_init__(self) -> None:
        for name, low in (("n_x", 1), ("n_l", 0), ("d_x", 1), ("d_l", 1)):
            check_int(f"worst_case.{name}", getattr(self, name), low)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully serializable description of one experiment run."""

    sim: SimConfig | None = None
    worst_case: WorstCaseParams | None = None
    policies: tuple[str, ...] = POLICY_NAMES
    rates: tuple[int, ...] = (4, 6)
    seeds: tuple[int, ...] = (0,)
    ordering: str = "min_degree"
    oracle: bool = False
    frame_stride: int = 1

    def __post_init__(self) -> None:
        if (self.sim is None) == (self.worst_case is None):
            raise ValueError("spec needs exactly one of sim / worst_case")
        for name in ("policies", "rates", "seeds"):
            values = getattr(self, name)
            if not isinstance(values, tuple):
                raise ValueError(f"{name} must be a tuple (a JSON list), got {values!r}")
            if any(v in values[:i] for i, v in enumerate(values)):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")
        unknown = [p for p in self.policies if p not in POLICY_NAMES]
        if unknown:
            raise ValueError(f"unknown policies {unknown}")
        if not isinstance(self.ordering, str) or self.ordering not in ORDERING_FUNCTIONS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        for name, low in (("rates", 1), ("seeds", 0)):
            if not getattr(self, name):
                raise ValueError(f"{name} must be a nonempty list of integers >= {low}")
            for value in getattr(self, name):
                check_int(name, value, low)
        check_int("frame_stride", self.frame_stride, 1)
        if not isinstance(self.oracle, bool):
            raise ValueError(f"oracle must be true or false, got {self.oracle!r}")


@dataclass(frozen=True)
class ReportRow:
    frame_idx: int
    policy: str
    rate: int
    seed: int
    n_vars: int | None
    n_factors: int | None
    ec_block: float
    ec_bt: int | None
    oracle_mult_count: int | None
    predicted_ec: int | None


CSV_HEADER = tuple(f.name for f in fields(ReportRow))


def _source_log(spec: ExperimentSpec) -> tuple[ObservationLog, int, int, int]:
    if spec.sim is not None:
        cfg = spec.sim
        return simulate_trajectory(cfg), cfg.d_x, cfg.d_l, cfg.min_obs_to_init
    wc = spec.worst_case
    assert wc is not None
    return worst_case_log(wc.n_x, wc.n_l), wc.d_x, wc.d_l, 2


def _cells(spec: ExperimentSpec) -> list[tuple[str, int, int]]:
    """The pruned (policy, rate, seed) cells; the prefix loop emits `full`."""
    cells: list[tuple[str, int, int]] = []
    for policy in POLICY_NAMES:
        if policy == "full" or policy not in spec.policies:
            continue
        if policy == "rand":
            cells.extend(("rand", r, s) for r in spec.rates for s in spec.seeds)
        else:
            cells.extend((policy, r, 0) for r in spec.rates)
    return cells


# closed-form cost of a pruned policy, from the unpruned prefix's counts
_PREDICTIONS = {"kf": predicted_ec_keyframe, "dec": predicted_ec_decimate}


def _measure(
    spec: ExperimentSpec, g: FactorGraph, t: int, policy: str, rate: int, seed: int,
    predicted: int | None,
) -> ReportRow:
    """One report row: `g` ordered, its two costs, and the oracle's count."""
    ordering = ORDERING_FUNCTIONS[spec.ordering](g)
    tree = elimination_tree(g, ordering)
    ec = elimination_complexity(g, ordering, tree=tree)
    ec_bt = ec_of_clique_tree(build_clique_tree(g, ordering, tree=tree))
    del tree  # free the separator sets before the oracle allocates its fronts
    oracle_mult = None
    if spec.oracle:
        system = synthesize_system(g, seed=0)
        oracle_mult = cholesky_count(system, ordering).mult_count
    return ReportRow(
        t, policy, rate, seed, g.n_vars, g.n_factors, ec, ec_bt, oracle_mult,
        predicted,
    )


def run_experiment(spec: ExperimentSpec) -> list[ReportRow]:
    source, d_x, d_l, min_obs = _source_log(spec)

    frame_ids = [f.index for f in source.frames]
    sampled = frame_ids[:: spec.frame_stride]
    if frame_ids and frame_ids[-1] not in sampled:
        sampled.append(frame_ids[-1])

    # the unpruned prefix drives prediction columns, the full rows and overlays
    full_counts: dict[int, tuple[int, int]] = {}
    rows: list[ReportRow] = []
    for t in sampled:
        g = build_graph(source.prefix(t), d_x=d_x, d_l=d_l, min_obs_to_init=min_obs)
        full_counts[t] = (g.n_poses, g.n_landmarks)
        if "full" in spec.policies:
            predicted = predicted_ec_full(g.n_poses, g.n_landmarks, d_x, d_l)
            rows.append(_measure(spec, g, t, "full", 1, 0, predicted))

    for policy, rate, seed in _cells(spec):
        log.debug("cell policy=%s rate=%d seed=%d", policy, rate, seed)
        filtered = apply_policy(source, policy, rate, seed).log
        predict = _PREDICTIONS.get(policy)
        for t in sampled:
            g = build_graph(
                filtered.prefix(t), d_x=d_x, d_l=d_l, min_obs_to_init=min_obs
            )
            if g.n_vars == 0:
                continue
            predicted = predict and predict(*full_counts[t], d_x, d_l, rate)
            rows.append(_measure(spec, g, t, policy, rate, seed, predicted))

    # dashed-line overlays: measured full curve scaled by the predicted ratios
    full_rows = [row for row in rows if row.policy == "full"]
    overlays = []
    if "kf" in spec.policies:
        overlays.append(("pred_kf", lambda ec, r: ec / r**3))
    if "dec" in spec.policies:
        overlays.append(("pred_dec", lambda ec, r: ec * 9.0 / r**2))
    for name, scale in overlays:
        for r in spec.rates:
            rows.extend(
                ReportRow(
                    f.frame_idx, name, r, 0, None, None, scale(f.ec_block, r),
                    None, None, None,
                )
                for f in full_rows
            )

    rows.sort(key=lambda r: (_ROW_ORDER[r.policy], r.rate, r.seed, r.frame_idx))
    return rows


# -- CSV ---------------------------------------------------------------------


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([_format_value(v) for v in astuple(r)])
    return buf.getvalue()


def write_report_csv(rows: list[ReportRow], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8", newline="\n")


_REQUIRED_FIELDS = ("frame_idx", "rate", "seed", "ec_block")


def _parse_field(name: str, text: str) -> int | float | None:
    """One numeric report field: finite and at least its floor, empty if optional."""
    if not text and name not in _REQUIRED_FIELDS:
        return None
    try:
        value = float(text) if name == "ec_block" else int(text)
    except ValueError:
        raise ValueError(f"{name}: expected a number, got {text!r}") from None
    low = 1 if name == "rate" else 0
    if not low <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= {low}, got {text!r}")
    return value


def read_report_csv(path: str | Path) -> list[ReportRow]:
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(CSV_HEADER):
        raise ParseError(str(path), 1, f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        try:
            if len(rec) != len(CSV_HEADER):
                raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(rec)}")
            if rec[1] not in _ROW_ORDER:
                raise ValueError(f"unknown policy {rec[1]!r}")
            rows.append(
                ReportRow(
                    *(
                        cell if name == "policy" else _parse_field(name, cell)
                        for name, cell in zip(CSV_HEADER, rec)
                    )
                )
            )
        except ValueError as exc:
            raise ParseError(str(path), reader.line_num, str(exc)) from None
    return rows


@dataclass(frozen=True)
class PolicySummary:
    policy: str
    rate: int
    final_ec: float
    mean_oracle_mult: float | None


def summarize(rows: list[ReportRow]) -> list[PolicySummary]:
    """Per (policy, rate): final-frame cost and mean oracle count."""
    groups: dict[tuple[str, int], list[ReportRow]] = {}
    for r in rows:
        if r.policy.startswith("pred_"):
            continue
        groups.setdefault((r.policy, r.rate), []).append(r)
    out = []
    for (policy, rate), members in sorted(
        groups.items(), key=lambda kv: (_ROW_ORDER[kv[0][0]], kv[0][1])
    ):
        last = max(f.frame_idx for f in members)
        finals = [f.ec_block for f in members if f.frame_idx == last]
        counts = [f.oracle_mult_count for f in members if f.oracle_mult_count is not None]
        out.append(
            PolicySummary(
                policy,
                rate,
                sum(finals) / len(finals),
                (sum(counts) / len(counts)) if counts else None,
            )
        )
    return out


def summary_to_csv(summaries: list[PolicySummary]) -> str:
    lines = ["policy,rate,final_ec,mean_oracle_mult"]
    for s in summaries:
        mean = "" if s.mean_oracle_mult is None else f"{s.mean_oracle_mult:.3f}"
        lines.append(f"{s.policy},{s.rate},{s.final_ec:.3f},{mean}")
    return "\n".join(lines) + "\n"
