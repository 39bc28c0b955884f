"""Numeric ground truth: a synthetic SPD system and a counting Cholesky.

The elimination-cost metrics are structural; this module provides the
independent numeric side. `synthesize_system` builds a random symmetric
positive-definite matrix whose scalar sparsity pattern is exactly the
graph's variable adjacency expanded to blocks, and `cholesky_count`
factorizes it while counting every scalar multiplication the algorithm
performs. Column scaling multiplies by the reciprocal of the pivot
square root, so one division is spent per pivot and everything else is a
multiplication; divisions are reported separately.

The factorization is right-looking and blocked over runs of consecutive
pivots of one variable: each run gathers the rows its pivots can reach
once, runs the scalar pivot loop inside that block and scatters it back.
It reads its structure only from the system's pattern (never from the
elimination cost it is meant to check), and it tallies each pivot's
multiplications from the pattern row it actually updates with, so the
counts do not depend on how pivots are grouped.
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
    factor: np.ndarray  # upper-triangular R in permuted order
    scalar_order: np.ndarray  # permutation applied to the scalar system


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


def cholesky_count(system: SparseSystem, ordering: Sequence[int]) -> CholeskyCount:
    """Right-looking sparse Cholesky under `ordering`, counting every
    scalar multiplication and division actually executed.

    The permuted scalars are processed in runs of consecutive scalars
    that belong to one variable (one run per variable for a block
    ordering). Each run gathers the block of rows and columns it can
    touch once: its own pivots plus every row in their remaining
    pattern. A pivot only updates rows in its own pattern, and the fill
    it creates lies among them, so every later pivot of the run stays
    inside the block. Within the block the scalar pivot loop runs on
    contiguous slices, because every pivot row of a run is dense over its
    block: in a `synthesize_system` pattern all scalars of a variable
    share one pattern and a dense diagonal block, and elimination keeps
    this, since a pivot's fill joins all or none of each variable's
    scalars. A pattern without this block structure raises ValueError.
    Then the block is scattered back once. The grouping only decides
    which pivots share a gather: every count, the failing index and the
    factor are those of the unblocked loop.

    The loop is driven by the structural pattern (including fill created
    along the way), never by numeric zeros, so counts are exact and
    reproducible. Raises NotPositiveDefiniteError naming the pivot if a
    nonpositive pivot appears.
    """
    perm = scalar_permutation(system, ordering)
    # working copy: ends as the factor, upper triangle in permuted order
    val = system.values[np.ix_(perm, perm)]
    pat = system.pattern[np.ix_(perm, perm)]
    n = system.n
    owner = np.repeat(np.arange(len(system.var_dims)), system.var_dims)[perm]
    bounds = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist(), n]
    mult = 0
    div = 0
    fill = 0
    for start, stop in zip(bounds, bounds[1:]):
        # the run's pivots and every later row their pattern reaches
        reach = np.flatnonzero(pat[start:stop, stop:].any(axis=0)) + stop
        rows = np.concatenate((np.arange(start, stop), reach))
        block = np.ix_(rows, rows)
        v, p = val[block], pat[block]
        for j in range(stop - start):
            pivot = v[j, j]
            if pivot <= 0.0:
                raise NotPositiveDefiniteError(
                    f"nonpositive pivot {pivot:.6g} at elimination index {start + j}"
                )
            root = math.sqrt(pivot)
            inv_root = 1.0 / root
            div += 1
            v[j, j] = root
            rest = slice(j + 1, None)
            if not p[j, rest].all():
                raise ValueError(f"pattern not block-structured at pivot {start + j}")
            d = p.shape[0] - j - 1
            if d == 0:
                continue
            col = v[j, rest] * inv_root
            v[j, rest] = col
            mult += d + d * (d + 1) // 2
            fill += (d * d - np.count_nonzero(p[rest, rest])) // 2
            p[rest, rest] = True
            v[rest, rest] -= np.outer(col, col)
        val[block] = v
        pat[block] = p
    for k in range(1, n):
        val[k, :k] = 0.0
    return CholeskyCount(mult, div, fill, val, perm)


def solve_with_factor(count: CholeskyCount, rhs: np.ndarray) -> np.ndarray:
    """Solve the original system given a counted factorization of it."""
    perm = count.scalar_order
    r = count.factor
    y = np.linalg.solve(r.T, rhs[perm])
    x_perm = np.linalg.solve(r, y)
    x = np.empty_like(x_perm)
    x[perm] = x_perm
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
