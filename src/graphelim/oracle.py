"""Numeric ground truth: a synthetic SPD system and a counting Cholesky.

The elimination-cost metrics are structural; this module provides the
independent numeric side. `synthesize_system` builds a random symmetric
positive-definite matrix whose scalar sparsity pattern is exactly the
graph's variable adjacency expanded to blocks, and `cholesky_count`
factorizes it while counting every scalar multiplication the algorithm
performs. Column scaling multiplies by the reciprocal of the pivot
square root, so one division is spent per pivot and everything else is a
multiplication; divisions are reported separately.

The factorization is multifrontal (Duff and Reid 1983; Liu 1992). Each
run of consecutive pivots of one variable, merged into fundamental
supernodes, gets a dense front over the indices its elimination touches.
A front is assembled from the original rows of its pivots and from its
children's update matrices, which are added into it as soon as each
child is factored, so no n x n working matrix exists and no update waits
on a stack. Structure comes only from the system's pattern (never from
the elimination cost it is meant to check), and each pivot's
multiplications are tallied from the front row it actually updates, so
the counts equal those of the unblocked scalar loop. The fronts'
(frontal, separator) dimensions are the supernodes of the elimination,
an independent check of the clique tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import FactorGraph


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class SparseSystem:
    """Dense-stored sparse SPD system with block layout metadata."""

    values: np.ndarray  # (n, n) float64, zero off-pattern
    pattern: np.ndarray  # (n, n) bool
    var_dims: tuple[int, ...]
    var_offsets: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CholeskyCount:
    mult_count: int
    div_count: int
    fill_count: int
    # one block per front, in elimination order: the front's index set
    # (sorted permuted positions, pivots first) and the rows of the
    # upper-triangular R at its pivots, over that index set
    factor: tuple[tuple[np.ndarray, np.ndarray], ...]
    scalar_order: np.ndarray  # permutation applied to the scalar system

    @property
    def front_dims(self) -> tuple[tuple[int, int], ...]:
        """Each front's (frontal, separator) scalar dimensions, in order."""
        return tuple((r.shape[0], r.shape[1] - r.shape[0]) for _, r in self.factor)


def synthesize_system(graph: FactorGraph, seed: int = 0) -> SparseSystem:
    """Random SPD matrix on the graph's block sparsity pattern.

    Off-diagonal blocks exist exactly where variables are adjacent;
    diagonal blocks are dense. Strict diagonal dominance guarantees the
    Cholesky factorization exists without pivoting. Deterministic per
    seed.
    """
    if graph.n_vars == 0:
        raise ValueError("cannot synthesize a system for an empty graph")
    dims = graph.dims
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    n = offsets[-1]

    owner = np.repeat(np.arange(graph.n_vars), dims)
    adjacent = np.eye(graph.n_vars, dtype=bool)
    for v in range(graph.n_vars):
        adjacent[v, list(graph.neighbors(v))] = True
    pattern = adjacent[np.ix_(owner, owner)]

    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=(n, n))
    # symmetrize, mask and set the diagonal row by row, in place: row i is
    # complete once its upper part is mirrored, as earlier rows wrote the rest
    for i in range(n):
        upper = (values[i, i + 1:] + values[i + 1:, i]) / 2.0
        upper[~pattern[i, i + 1:]] = 0.0
        values[i, i + 1:] = upper
        values[i + 1:, i] = upper
        values[i, i] = 0.0
        values[i, i] = np.abs(values[i]).sum() + 1.0
    return SparseSystem(values, pattern, tuple(dims), tuple(offsets[:-1]))


def scalar_permutation(system: SparseSystem, ordering: Sequence[int]) -> np.ndarray:
    """Expand a block (variable) ordering to scalar indices.

    A scalar ordering (a permutation of all row indices) passes through
    unchanged.
    """
    n_vars = len(system.var_dims)
    order = list(ordering)
    if len(order) == n_vars and sorted(order) == list(range(n_vars)):
        out: list[int] = []
        for v in order:
            start = system.var_offsets[v]
            out.extend(range(start, start + system.var_dims[v]))
        return np.array(out, dtype=np.intp)
    if len(order) == system.n and sorted(order) == list(range(system.n)):
        return np.array(order, dtype=np.intp)
    raise ValueError("ordering is neither a block nor a scalar permutation")


def _fronts(
    system: SparseSystem, perm: np.ndarray
) -> list[tuple[np.ndarray, int, int, np.ndarray | None]]:
    """Symbolic pass: the fronts of the multifrontal factorization.

    Reads only `system.pattern`. The permuted scalars split into runs of
    consecutive scalars of one variable. A run's front is its pivots, the
    later entries of their (shared) original pattern row and its children's
    update sets; its update set is the front minus its pivots, and its
    parent is the run that holds the update set's smallest index. A run
    joins the front before it when it is that front's parent, has no other
    child, and its own front equals that update set (a fundamental
    supernode). Each front comes out as (index set of sorted permuted
    positions, pivot count, parent front or -1, positions of its update
    set within the parent's index set).
    """
    n = system.n
    owner = np.repeat(np.arange(len(system.var_dims)), system.var_dims)[perm]
    bounds = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist(), n]
    run_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    children: list[list[int]] = [[] for _ in bounds[1:]]
    updates: list[np.ndarray] = []
    parents: list[int] = []
    front_of: list[int] = []  # run -> front
    fronts: list[list] = []  # [index set, pivot count, last run]
    for r, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        p = stop - start
        rows = system.pattern[np.ix_(perm[start:stop], perm[start:])]
        if not (rows == rows[0]).all():
            raise ValueError(f"pattern not block-structured at pivot {start}")
        parts = [np.arange(start, stop), np.flatnonzero(rows[0]) + start]
        for c in children[r]:
            # a child's update set must hold all of this run's pivots or none
            if updates[c].size < p or updates[c][p - 1] != stop - 1:
                raise ValueError(f"pattern not block-structured at pivot {start}")
            parts.append(updates[c])
        front = np.unique(np.concatenate(parts))
        update = front[p:]
        updates.append(update)
        parents.append(int(run_of[update[0]]) if update.size else -1)
        if update.size:
            children[parents[-1]].append(r)
        if children[r] == [r - 1] and updates[r - 1].size == front.size:
            fronts[-1][1] += p
            fronts[-1][2] = r
        else:
            fronts.append([front, p, r])
        front_of.append(len(fronts) - 1)
    out = []
    for index, p, last in fronts:
        parent = front_of[parents[last]] if parents[last] >= 0 else -1
        rel = np.searchsorted(fronts[parent][0], updates[last]) if parent >= 0 else None
        out.append((index, p, parent, rel))
    return out


def cholesky_count(system: SparseSystem, ordering: Sequence[int]) -> CholeskyCount:
    """Multifrontal sparse Cholesky under `ordering`, counting every scalar
    multiplication and division actually executed.

    A symbolic pass (`_fronts`) finds each front's index set and parent
    from the pattern. The numeric pass then visits the fronts in
    elimination order. A front is a dense matrix over its index set: the
    original rows of its pivots plus the update matrices its children
    added into it. Its pivots are factored one at a time on the pivot rows,
    then one rank-p product forms the Schur complement over the rest of
    the front, which is added into the parent's front at once (allocated
    on the first child's arrival), so no update waits on a stack.

    Each pivot's multiplications are tallied from the front row it
    actually updates, d entries right of the pivot costing d + d(d+1)/2,
    so the counts do not depend on how pivots are grouped into fronts.
    The fill is the number of factor entries stored beyond the original
    pattern. Structure is driven by the pattern and the extend-add, never
    by numeric zeros, so counts are exact and reproducible. A pattern
    whose variables do not share one pattern row, or whose elimination
    would split a variable's pivots, raises ValueError. Raises
    NotPositiveDefiniteError naming the pivot if a nonpositive pivot
    appears.
    """
    perm = scalar_permutation(system, ordering)
    fronts = _fronts(system, perm)
    pending: list[np.ndarray | None] = [None] * len(fronts)
    blocks = []
    mult = 0
    div = 0
    stored = 0
    for i, (index, p, parent, rel) in enumerate(fronts):
        f = index.size
        start = int(index[0])
        rows = system.values[np.ix_(perm[start:start + p], perm[index])]
        m = pending[i]
        pending[i] = None
        if m is None:
            # assigned, not added to zeros, so that a -0.0 pivot keeps its sign
            m = np.zeros((f, f))
            m[:p] = rows
        else:
            m[:p] += rows
        for j in range(p):
            pivot = m[j, j]
            if pivot <= 0.0:
                raise NotPositiveDefiniteError(
                    f"nonpositive pivot {pivot:.6g} at elimination index {start + j}"
                )
            root = math.sqrt(pivot)
            inv_root = 1.0 / root
            div += 1
            m[j, j] = root
            d = f - j - 1
            if d == 0:
                continue
            col = m[j, j + 1:] * inv_root
            m[j, j + 1:] = col
            mult += d + d * (d + 1) // 2
            stored += d
            m[j + 1:p, j + 1:] -= np.outer(col[:p - j - 1], col)
        blocks.append((index, np.triu(m[:p])))
        if parent >= 0:
            r12 = m[:p, p:]
            m[p:, p:] -= r12.T @ r12
            if pending[parent] is None:
                size = fronts[parent][0].size
                pending[parent] = np.zeros((size, size))
            pending[parent][np.ix_(rel, rel)] += m[p:, p:]
    pat = system.pattern
    original = (np.count_nonzero(pat) - np.count_nonzero(np.diagonal(pat))) // 2
    return CholeskyCount(mult, div, stored - original, tuple(blocks), perm)


def solve_with_factor(count: CholeskyCount, rhs: np.ndarray) -> np.ndarray:
    """Solve the original system given a counted factorization of it.

    R^T y = b runs front by front in elimination order, R x = y in
    reverse; each front solves its pivots' triangle and passes the rest of
    its rows on.
    """
    perm = count.scalar_order
    y = np.array(rhs[perm], dtype=float)
    for index, r in count.factor:
        p = r.shape[0]
        pivots, rest = index[:p], index[p:]
        y[pivots] = np.linalg.solve(r[:, :p].T, y[pivots])
        y[rest] -= r[:, p:].T @ y[pivots]
    for index, r in reversed(count.factor):
        p = r.shape[0]
        pivots, rest = index[:p], index[p:]
        y[pivots] = np.linalg.solve(r[:, :p], y[pivots] - r[:, p:] @ y[rest])
    x = np.empty_like(y)
    x[perm] = y
    return x


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("series must be one-dimensional and equally long")
    if x.size < 3:
        raise ValueError("need at least 3 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("series has zero variance")
    return float(xc @ yc) / (sx * sy)


def system_to_coo_text(system: SparseSystem) -> str:
    """Coordinate text export: one `row col value` line per stored entry."""
    rows, cols = np.nonzero(system.pattern)
    lines = [
        f"{r} {c} {float(system.values[r, c])!r}"
        for r, c in zip(rows.tolist(), cols.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")
