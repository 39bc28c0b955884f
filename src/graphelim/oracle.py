"""Numeric ground truth: a synthetic SPD system and a counting Cholesky.

The elimination-cost metrics are structural; this module provides the
independent numeric side. `synthesize_system` builds a random symmetric
positive-definite matrix whose scalar sparsity pattern is exactly the
graph's variable adjacency expanded to blocks. `cholesky_count` factors it
under a variable ordering, left-looking by supernodes (Ng and Peyton 1993):
one run of pivots per variable, read from the pattern permuted once, and
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

from .graph import FactorGraph


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class SparseSystem:
    """Dense-stored sparse SPD system with block layout metadata."""

    values: np.ndarray  # (n, n) float64, zero off-pattern
    pattern: np.ndarray  # (n, n) bool
    var_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        for v, d in enumerate(self.var_dims):
            if d < 1:
                raise ValueError(f"var_dims[{v}] must be >= 1, got {d}")
        n = sum(self.var_dims)
        if self.values.shape != (n, n) or self.pattern.shape != (n, n):
            raise ValueError(
                f"var_dims sum to {n}, but values are {self.values.shape}"
                f" and pattern is {self.pattern.shape}"
            )

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
    dims = graph.dims
    adjacent = np.eye(graph.n_vars, dtype=bool)
    for v in range(graph.n_vars):
        adjacent[v, list(graph.neighbors(v))] = True
    pattern = adjacent.repeat(dims, 0).repeat(dims, 1)
    n = pattern.shape[0]

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
        block[~pattern[a:b, a:]] = 0.0
        values[a:b, a:] = block
        values[a:, a:b] = block.T
        del block  # one block-sized temporary at a time
        rows = values[a:b]
        diag = np.arange(b - a), np.arange(a, b)
        rows[diag] = 0.0
        rows[diag] = np.abs(rows).sum(axis=1) + 1.0
    return SparseSystem(values, pattern, tuple(dims))


def scalar_permutation(system: SparseSystem, ordering: Sequence[int]) -> np.ndarray:
    """Expand a variable ordering to scalar indices: each variable's
    scalars, in their own order, at its turn."""
    n_vars = len(system.var_dims)
    if len(ordering) != n_vars or set(ordering) != set(range(n_vars)):
        raise ValueError(f"ordering is not a permutation of the {n_vars} variable ids")
    starts = list(itertools.accumulate(system.var_dims, initial=0))
    scalars = [i for v in ordering for i in range(starts[v], starts[v + 1])]
    return np.array(scalars, dtype=np.intp)


def _fronts(pattern: np.ndarray, dims: Sequence[int]) -> list[tuple[np.ndarray, int]]:
    """Symbolic pass: the fronts of the supernodal factorization.

    Reads only `pattern`, the system's pattern permuted by the ordering,
    whose r-th run of `dims[r]` consecutive scalars is the r-th variable
    eliminated. A run's index set is its pivots, the later entries of their
    (shared) pattern row and its children's update sets; its update set is
    the index set minus its pivots (the structure of its columns of the
    factor), and its parent is the run that holds the update set's smallest
    index. A run joins the front before it when it is that front's parent,
    has no other child, and its own index set equals that update set (a
    fundamental supernode). Each front comes out as (index set of sorted
    permuted positions, pivot count).
    """
    bounds = list(itertools.accumulate(dims, initial=0))
    run_of = np.repeat(np.arange(len(dims)), dims)
    children: list[list[int]] = [[] for _ in dims]
    updates: list[np.ndarray] = []
    fronts: list[tuple[np.ndarray, int]] = []
    for r, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        p = stop - start
        rows = pattern[start:stop, start:]
        if not (rows == rows[0]).all():
            raise ValueError(f"pattern not block-structured at pivot {start}")
        marked = rows[0].copy()  # the index set, as positions from `start`
        marked[:p] = True
        for c in children[r]:
            # a child's update set must hold all of this run's pivots or none
            if updates[c].size < p or updates[c][p - 1] != stop - 1:
                raise ValueError(f"pattern not block-structured at pivot {start}")
            marked[updates[c] - start] = True
        index = np.flatnonzero(marked) + start
        updates.append(index[p:])
        if index.size > p:
            children[int(run_of[index[p]])].append(r)
        if children[r] == [r - 1] and updates[r - 1].size == index.size:
            fronts[-1] = (fronts[-1][0], fronts[-1][1] + p)
        else:
            fronts.append((index, p))
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
    count from the pattern, permuted once. The numeric pass visits the
    fronts in elimination order. A front is its pivots' original rows over
    its index set, less the products of the factor rows waiting on it
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
    the pattern alone, however pivots are grouped into fronts. A pattern
    whose variables do not share one pattern row, or whose elimination
    would split a variable's pivots, raises ValueError, as does an ordering
    that is not a permutation of the variable ids. When a panel's
    Cholesky fails, the scalar loop on that block alone raises
    NotPositiveDefiniteError naming the first nonpositive pivot.
    """
    perm = scalar_permutation(system, ordering)
    fronts = _fronts(
        system.pattern[perm][:, perm], [system.var_dims[v] for v in ordering]
    )
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
    pat = system.pattern
    original = (np.count_nonzero(pat) - np.count_nonzero(np.diagonal(pat))) // 2
    count = CholeskyCount(mult, div, stored - original, tuple(blocks), perm)
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
