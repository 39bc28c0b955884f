"""Numeric ground truth: a synthetic SPD system and a counting Cholesky.

The elimination-cost metrics are structural; this module provides the
independent numeric side. `synthesize_system` builds a random symmetric
positive-definite matrix on a graph, nonzero exactly where the graph's
variable adjacency, expanded to blocks, says. `cholesky_count` factors it
under a variable ordering, left-looking by supernodes (Ng and Peyton 1993):
one run of pivots per variable, with its structure read from the graph, and
one front per fundamental supernode of runs, which holds only its pivot
rows over its index set and is factored by LAPACK Cholesky and solve. A
front's factor rows over its later columns wait on the front that owns the
first of them; that front subtracts the products of all the rows waiting
on it, one product per stack of rows, and passes each on, trimmed past its
own pivots, to the front that owns the next column. It tallies pivot by
pivot, from the fronts' widths, the multiplications of the scalar
right-looking Cholesky, whose column scaling by the reciprocal root spends
one division per pivot. No count comes from the elimination cost it is
meant to check; the factor is checked numerically on every call (R^T R x
against A x), and a nonpositive pivot is named by the scalar loop on the
pivot block LAPACK refused. The fronts' (frontal, separator) dimensions
are an independent check of the clique tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import FactorGraph, check_ordering


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class SparseSystem:
    """Dense-stored SPD system on a graph's block pattern: variable v owns
    the next `dims[v]` scalars after variables 0..v-1, and the block of two
    distinct variables is zero unless they are adjacent."""

    values: np.ndarray  # (n, n) float64, n the sum of the graph's dims
    graph: FactorGraph

    def __post_init__(self) -> None:
        n = sum(self.graph.dims)
        if self.values.shape != (n, n):
            raise ValueError(f"the graph's dims sum to {n}, but values are {self.values.shape}")

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


# synthesize_system finishes this many rows at a time; each of its
# temporaries holds that many rows (1.1 MiB on the 1140-scalar desk frame)
_SYNTH_ROWS = 128


def synthesize_system(graph: FactorGraph, seed: int = 0) -> SparseSystem:
    """Random SPD matrix on the graph's block sparsity pattern.

    Off-diagonal blocks exist exactly where variables are adjacent;
    diagonal blocks are dense. Strict diagonal dominance guarantees the
    Cholesky factorization exists without pivoting. Deterministic per
    seed.
    """
    if graph.n_vars == 0:
        raise ValueError("cannot synthesize a system for an empty graph")
    adjacent = np.eye(graph.n_vars, dtype=bool)
    for v in range(graph.n_vars):
        adjacent[v, list(graph.neighbors(v))] = True
    var_of = np.repeat(np.arange(graph.n_vars), graph.dims)
    n = var_of.size

    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=(n, n))
    # symmetrize, mask and set the diagonal a block of rows at a time, in
    # place. No earlier block writes the upper part of rows a..b or the
    # lower part of columns a..b, so both still hold the raw draw; once the
    # block's upper part is mirrored, its rows are complete
    for a in range(0, n, _SYNTH_ROWS):
        b = min(a + _SYNTH_ROWS, n)
        block = values[a:b, a:] + values[a:, a:b].T
        block /= 2.0
        block[~adjacent[var_of[a:b]][:, var_of[a:]]] = 0.0
        values[a:b, a:] = block
        values[a:, a:b] = block.T
        del block  # one block-sized temporary at a time
        rows = values[a:b]
        diag = np.arange(b - a), np.arange(a, b)
        rows[diag] = 0.0
        rows[diag] = np.abs(rows).sum(axis=1) + 1.0
    return SparseSystem(values, graph)


def scalar_permutation(system: SparseSystem, ordering: Sequence[int]) -> np.ndarray:
    """Expand a variable ordering to scalar indices: each variable's
    scalars, in their own order, at its turn."""
    check_ordering(system.graph, ordering)
    starts = list(itertools.accumulate(system.graph.dims, initial=0))
    scalars = [i for v in ordering for i in range(starts[v], starts[v + 1])]
    return np.array(scalars, dtype=np.intp)


def _fronts(graph: FactorGraph, ordering: Sequence[int]) -> list[tuple[np.ndarray, int]]:
    """Symbolic pass: the fronts of the supernodal factorization.

    Runs over variables: the r-th run is `ordering[r]`'s pivots, the r-th
    block of consecutive permuted positions. A run's variables are itself,
    its neighbours later in the ordering and its children's update
    variables; its index set is their scalars' positions, its update
    variables are all but itself (the structure of its columns of the
    factor), and its parent is the first update variable. A run joins the
    front before it when it is that front's parent, has no other child,
    and its variables are that front's update variables (a fundamental
    supernode). Each front comes out as (index set of sorted permuted
    positions, pivot count).
    """
    dims = [graph.dims[v] for v in ordering]
    bounds = list(itertools.accumulate(dims, initial=0))
    pos = np.empty(len(dims), dtype=np.intp)
    pos[ordering] = np.arange(len(dims))
    children: list[list[int]] = [[] for _ in dims]
    updates: list[np.ndarray] = []  # each run's update variables, as positions
    fronts: list[tuple[np.ndarray, int]] = []
    for r, v in enumerate(ordering):
        marked = np.zeros(len(dims) - r, dtype=bool)  # positions from r
        marked[0] = True
        later = pos[list(graph.neighbors(v))]
        marked[later[later > r] - r] = True
        for c in children[r]:
            marked[updates[c] - r] = True
        update = np.flatnonzero(marked[1:]) + r + 1
        updates.append(update)
        if update.size:
            children[update[0]].append(r)
        if children[r] == [r - 1] and updates[r - 1].size == update.size + 1:
            fronts[-1] = (fronts[-1][0], fronts[-1][1] + dims[r])
        else:
            index = np.flatnonzero(np.repeat(marked, dims[r:])) + bounds[r]
            fronts.append((index, dims[r]))
    return fronts


# panels this small keep OpenBLAS's LAPACK on one thread: its threaded calls
# on 100-250 pivots took 1 to over 40 ms each on a 2-core x86 VM
_PANEL = 64
# a front subtracts its descendants' products this many stacked factor rows
# at a time, which bounds the stack at _STACK rows of the front's width
_STACK = 256
# the factor check's bound on |R^T R x - A x| / |A x|: a correct factor of a
# synthesized system stays below 1e-14
_CHECK_RTOL = 1e-10


class FactorCheckError(RuntimeError):
    """The factor does not reproduce the system it was computed from."""


def _subtract_products(
    front: np.ndarray, index: np.ndarray, tails: Sequence[tuple[np.ndarray, np.ndarray]]
) -> None:
    """front -= W[:, :p].T @ W for a front of p pivot rows over `index`, where
    W stacks each tail's factor rows, its columns scattered to where they
    fall in `index`, at most `_STACK` rows at a time."""
    p = front.shape[0]
    total = sum(rows.shape[0] for _, rows in tails)
    stack = np.zeros((min(total, _STACK), index.size))
    k = 0
    for cols, rows in tails:
        at = np.searchsorted(index, cols)
        for a in range(0, rows.shape[0], _STACK):
            piece = rows[a:a + _STACK]
            if k + piece.shape[0] > stack.shape[0]:
                front -= stack[:k, :p].T @ stack[:k]
                stack[:k] = 0.0
                k = 0
            stack[k:k + piece.shape[0], at] = piece
            k += piece.shape[0]
    front -= stack[:k, :p].T @ stack[:k]


def _pivot_by_pivot(block: np.ndarray, start: int) -> np.ndarray:
    """Lower Cholesky factor of a pivot block by the scalar loop, raising
    NotPositiveDefiniteError at its first nonpositive pivot."""
    a = block.copy()
    for j in range(a.shape[0]):
        if a[j, j] <= 0.0:
            raise NotPositiveDefiniteError(
                f"nonpositive pivot {a[j, j]:.6g} at elimination index {start + j}"
            )
        a[j, j] = math.sqrt(a[j, j])
        a[j + 1:, j] *= 1.0 / a[j, j]
        a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j + 1:, j])
    return np.tril(a)


def cholesky_count(system: SparseSystem, ordering: Sequence[int]) -> CholeskyCount:
    """Left-looking supernodal Cholesky under the variable ordering
    `ordering`, tallying every scalar multiplication and division of the
    unblocked scalar loop.

    Each variable's scalars are eliminated together, as one run of pivots.
    A symbolic pass (`_fronts`) finds each front's index set and pivot
    count from the graph. The numeric pass visits the fronts in
    elimination order. A front is its pivots' original rows over its index
    set, less the products of the factor rows waiting on it
    (`_subtract_products`), all of them at once. Once factored, the front
    adds its own rows to those that waited on it, and each one whose
    columns reach past the front's pivots waits next, trimmed to those
    columns, on the front that owns the first of them. Every column a
    descendant's rows touch at or after a pivot j lies in the structure of
    column j, so each waiting row fits its front's index set.
    Each panel of at most `_PANEL` pivot rows takes one Cholesky of its
    diagonal block, one solve against that factor for the rest of its rows
    and one product that updates the front's later pivot rows.
    Then `check_factor` compares R^T R x with A x for one fixed x that is
    not constant, A read over the fronts' original rows, as factored, and
    raises FactorCheckError past a relative residual of `_CHECK_RTOL`.

    Pivot j of a front of width f has d = f - j - 1 entries right of it,
    costing d + d(d+1)/2 multiplications and one division; the fill counts
    the factor entries stored beyond the original pattern. Both come from
    the graph alone, however pivots are grouped into fronts. An ordering
    that is not a permutation of the variable ids raises ValueError. When
    a panel's Cholesky fails, the scalar loop on that block alone raises
    NotPositiveDefiniteError naming the first nonpositive pivot.
    """
    perm = scalar_permutation(system, ordering)
    fronts = _fronts(system.graph, ordering)
    owner = np.repeat(np.arange(len(fronts)), [p for _, p in fronts])
    # the factor check's vector, and A x read from each front's original rows
    x = np.linspace(1.0, 2.0, perm.size)
    ax = np.zeros_like(x)
    waiting: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in fronts]
    blocks = []
    mult = div = stored = 0
    for i, (index, p) in enumerate(fronts):
        f, start = index.size, int(index[0])
        m = system.values.take(perm[start:start + p], 0).take(perm[index], 1)
        ax[start:start + p] += m @ x[index]
        ax[index[p:]] += m[:, p:].T @ x[start:start + p]
        tails, waiting[i] = waiting[i], []  # drops the views once used
        if tails:
            _subtract_products(m, index, tails)
        for a in range(0, p, _PANEL):
            b = min(a + _PANEL, p)
            try:
                low = np.linalg.cholesky(m[a:b, a:b])
            except np.linalg.LinAlgError:
                low = _pivot_by_pivot(m[a:b, a:b], start + a)
            # zeros below the panel leave the pivot rows upper triangular
            m[a:b, a:b] = low.T
            m[b:p, a:b] = 0.0
            if b < f:
                m[a:b, b:] = rest = np.linalg.solve(low, m[a:b, b:])
                m[b:p, b:] -= rest[:, :p - b].T @ rest
        blocks.append((index, m))
        for d in range(f - 1, f - p - 1, -1):  # pivot j has d = f - j - 1
            mult += d + d * (d + 1) // 2
            div += 1
            stored += d
        # every tail, this front's own rows included, moves on to the front
        # that owns its first column past this front's pivots
        tails.append((index, m))
        for cols, rows in tails:
            k = np.searchsorted(cols, start + p)
            if k < cols.size:
                waiting[owner[cols[k]]].append((cols[k:], rows[:, k:]))
    # the original pattern's entries, read off the graph; half the
    # off-diagonal ones lie above the diagonal
    dims = system.graph.dims
    nnz = sum(
        d * (d + sum(dims[u] for u in system.graph.neighbors(v)))
        for v, d in enumerate(dims)
    )
    fill = stored - (nnz - perm.size) // 2
    count = CholeskyCount(mult, div, fill, tuple(blocks), perm)
    check_factor(count, x, ax)
    return count


def check_factor(count: CholeskyCount, x: np.ndarray, ax: np.ndarray) -> float:
    """Relative residual |R^T R x - A x| / |A x| of a counted factorization,
    given x and A x in elimination order; past `_CHECK_RTOL` it raises
    FactorCheckError. R x and then R^T (R x) run front by front: a front's
    rows of R x are its factor rows times x over its index set."""
    z = np.zeros_like(x)
    for index, r in count.factor:
        z[index] += r.T @ (r @ x[index])
    residual = float(np.linalg.norm(z - ax) / np.linalg.norm(ax))
    if not residual <= _CHECK_RTOL:
        raise FactorCheckError(
            f"factor check failed: |R^T R x - A x| / |A x| = {residual:.3g}"
            f" exceeds {_CHECK_RTOL:g}"
        )
    return residual


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
