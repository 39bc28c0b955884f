"""Experiment runner: policy grids over incremental graph prefixes.

For every (policy, rate, seed) cell the runner filters the observation
log once, then for each sampled frame prefix builds the pruned graph,
orders it, builds its elimination tree once and computes both the
per-variable and the clique-tree elimination cost from that one tree,
optionally runs the counting Cholesky oracle, and appends one CSV row.
Prediction overlay rows scale the measured `full` curve by 1/r^3
(keyframing) and 9/r^2 (decimation). Everything is sequential and
seeded, so a spec reproduces its CSV byte for byte. The rows and their
CSV files live in `graphelim.report`, which needs no numpy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .cliquetree import build_clique_tree, ec_of_clique_tree
from .elimination import ORDERING_FUNCTIONS, elimination_complexity, elimination_tree
from .graph import FactorGraph
from .oracle import cholesky_count, synthesize_system
from .pruning import (
    apply_policy,
    predicted_ec_decimate,
    predicted_ec_full,
    predicted_ec_keyframe,
)
from .report import POLICY_NAMES, _ROW_ORDER, ReportRow
from .simulate import (
    ObservationLog,
    SimConfig,
    WorstCaseParams,
    build_graph,
    check_int,
    simulate_trajectory,
    worst_case_log,
)

log = logging.getLogger("graphelim.experiment")


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


def _source_log(spec: ExperimentSpec) -> tuple[ObservationLog, int, int, int]:
    if spec.sim is not None:
        cfg = spec.sim
        return simulate_trajectory(cfg), cfg.d_x, cfg.d_l, cfg.min_obs_to_init
    wc = spec.worst_case
    assert wc is not None
    # a landmark enters on its second sighting, but `worst_case_graph` (gen's graph.txt)
    # takes it on its first: frame 0 is the lone pose, and from frame 1 on every
    # landmark is in, so the last frame is graph.txt when n_x >= 2
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
