"""Numeric ground truth: a synthetic SPD system and a counting Cholesky.

The elimination-cost metrics are structural; this module provides the
independent numeric side. `synthesize_system` builds a random symmetric
positive-definite matrix on a graph, nonzero exactly where the graph's
variable adjacency, expanded to blocks, says, and stores it by variable:
each variable's rows over its closed neighbourhood, so no n x n array is
ever made. `cholesky_count` factors it under a variable ordering,
left-looking by supernodes (Ng and Peyton 1993): one run of pivots per
variable, with its structure read from the graph, and one front per
fundamental supernode of runs, which gathers only its pivot rows over its
index set from its variables' rows and is factored by LAPACK Cholesky and
solve. A front's factor rows over its later columns wait on the front that
owns the first of them; that front subtracts the products of all the rows
waiting on it, one product per stack of rows, and passes each on, trimmed
past its own pivots, to the front that owns the next column. It tallies
pivot by pivot, from the fronts' widths, the multiplications of the scalar
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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import FactorGraph, check_ordering


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class SparseSystem:
    """SPD system on a graph's block pattern, stored by variable rows.

    Variable v owns the next `dims[v]` scalars after variables 0..v-1, and
    the block of two distinct variables is zero unless they are adjacent.
    `rows[v]` holds v's scalars' rows over its closed neighbourhood (v and
    its neighbours, in variable-id order): a dims[v] x width float64 array
    whose columns are the scalar ids `cols[v]`, ascending. `cols` is read
    off the graph, so the store holds nnz(A) values and no n x n array,
    and it cannot hold an entry outside the graph's pattern.
    """

    rows: tuple[np.ndarray, ...]
    graph: FactorGraph
    cols: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cols = _closed_columns(self.graph)[1]
        if len(self.rows) != len(cols):
            raise ValueError(
                f"the graph has {len(cols)} variables, but the system {len(self.rows)} row blocks"
            )
        for v, (rows, c, d) in enumerate(zip(self.rows, cols, self.graph.dims)):
            if rows.shape != (d, c.size):
                raise ValueError(
                    f"variable {v}'s rows are {rows.shape}, but its dim and closed"
                    f" neighbourhood make them ({d}, {c.size})"
                )
        object.__setattr__(self, "cols", cols)

    @property
    def n(self) -> int:
        return sum(self.graph.dims)


def _scalars(starts: np.ndarray, dims: np.ndarray, variables: np.ndarray) -> np.ndarray:
    """The scalar ids of `variables`, each variable's in order, at its turn,
    given every variable's first scalar and dim."""
    d = dims[variables]
    ids = np.repeat(starts[variables] - (np.cumsum(d) - d), d)
    ids += np.arange(ids.size)
    return ids


def _closed_columns(graph: FactorGraph) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Each variable's closed neighbourhood as ascending scalar ids: all of
    them in variable order, and per variable, as views of those."""
    dims = np.array(graph.dims, dtype=np.intp)
    near = [sorted(graph.neighbors(v) | {v}) for v in range(graph.n_vars)]
    flat = np.fromiter(itertools.chain.from_iterable(near), np.intp)
    scalars = _scalars(np.cumsum(dims) - dims, dims, flat)
    # split at each variable's last column; the piece after the last is empty
    cuts = np.cumsum(dims[flat])[np.cumsum([len(u) for u in near], dtype=np.intp) - 1]
    return scalars, tuple(np.split(scalars, cuts)[:-1])


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


# synthesize_system draws about this many entries at a time; each of its
# temporaries holds that many (128 KiB)
_SYNTH_ENTRIES = 1 << 14
# splitmix64's increment and multipliers (Steele, Lea and Flood 2014)
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _uniform(keys: np.ndarray, seed: int) -> np.ndarray:
    """The keys-th draws of a splitmix64 stream seeded with `seed`, as
    uniforms in the open interval (-1, 1). Consumes `keys`."""
    z = keys.view(np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed % 2**64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    # 52 bits k give (k + 1/2) / 2^51 - 1: exact, and never 0
    out = (z >> np.uint64(12)).astype(np.float64)
    out += 0.5
    out *= 2.0**-51
    out -= 1.0
    return out


def synthesize_system(graph: FactorGraph, seed: int = 0) -> SparseSystem:
    """Random SPD matrix on the graph's block sparsity pattern.

    Off-diagonal blocks exist exactly where variables are adjacent;
    diagonal blocks are dense. Entry (i, j) off the diagonal is the
    min(i, j) * n + max(i, j)-th uniform(-1, 1) draw of a splitmix64 stream
    seeded with `seed`, so the matrix is symmetric by construction and
    deterministic per seed; each diagonal entry is its row's absolute
    off-diagonal sum plus 1, and this strict diagonal dominance guarantees
    the Cholesky factorization exists without pivoting. The rows are drawn
    into one flat array, whole scalar rows of about `_SYNTH_ENTRIES`
    entries at a time.
    """
    if graph.n_vars == 0:
        raise ValueError("cannot synthesize a system for an empty graph")
    col_ids, cols = _closed_columns(graph)
    dims = np.array(graph.dims, dtype=np.intp)
    n = int(dims.sum())
    # per scalar row: its width, its first entry in the flat store and its
    # first column's offset in `col_ids`
    sizes = np.array([c.size for c in cols], dtype=np.intp)
    width = np.repeat(sizes, dims)
    row_at = np.concatenate(([0], np.cumsum(width)))
    col_at = np.repeat(np.cumsum(sizes) - sizes, dims)
    flat = np.empty(int(row_at[-1]))
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(row_at, row_at[a] + _SYNTH_ENTRIES, "right")) - 1)
        e0, e1 = int(row_at[a]), int(row_at[b])
        i = np.repeat(np.arange(a, b), width[a:b])
        j = col_ids[np.repeat(col_at[a:b] - row_at[a:b], width[a:b]) + np.arange(e0, e1)]
        block = flat[e0:e1]
        block[:] = _uniform(np.minimum(i, j) * n + np.maximum(i, j), seed)
        at = np.flatnonzero(i == j)  # one diagonal entry per row
        block[at] = 0.0
        block[at] = np.add.reduceat(np.abs(block), row_at[a:b] - e0) + 1.0
        a = b
    del col_ids, cols, i, j  # freed before the store reads its columns again
    cuts = row_at[np.cumsum(dims)].tolist()
    rows = tuple(
        flat[i:j].reshape(d, -1) for i, j, d in zip([0, *cuts], cuts, dims.tolist())
    )
    return SparseSystem(rows, graph)


def scalar_permutation(system: SparseSystem, ordering: Sequence[int]) -> np.ndarray:
    """Expand a variable ordering to scalar indices: each variable's
    scalars, in their own order, at its turn."""
    check_ordering(system.graph, ordering)
    dims = np.array(system.graph.dims, dtype=np.intp)
    return _scalars(np.cumsum(dims) - dims, dims, np.asarray(ordering, dtype=np.intp))


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
        nbrs = graph.neighbors(v)
        later = pos[np.fromiter(nbrs, np.intp, len(nbrs))]
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
    front: np.ndarray, slot: np.ndarray, tails: Sequence[tuple[np.ndarray, np.ndarray]]
) -> None:
    """front -= W[:, :p].T @ W for a front of p pivot rows, where W stacks
    each tail's factor rows, its columns scattered to the front's columns
    `slot` gives their positions, at most `_STACK` rows at a time."""
    p, f = front.shape
    total = sum(rows.shape[0] for _, rows in tails)
    stack = np.zeros((min(total, _STACK), f))
    k = 0
    for cols, rows in tails:
        at = slot[cols]
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
    set, gathered from its variables' stored rows (a spare last column takes
    the entries left of the front, which belong to earlier pivots), less
    the products of the factor rows waiting on it
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
    dims = system.graph.dims
    bounds = list(itertools.accumulate((dims[v] for v in ordering), initial=0))
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.size)
    # a position's column in the current front; -1, the front's spare last
    # column, for the pivots of fronts already factored
    slot = np.full(perm.size, -1, dtype=np.intp)
    # the factor check's vector, and A x read from each front's original rows
    x = np.linspace(1.0, 2.0, perm.size)
    ax = np.zeros_like(x)
    waiting: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in fronts]
    blocks = []
    mult = div = stored = 0
    run = 0
    for i, (index, p) in enumerate(fronts):
        f, start = index.size, int(index[0])
        slot[index] = np.arange(f)
        m = np.zeros((p, f + 1))
        while bounds[run] < start + p:  # gather each pivot run's rows
            v, a = ordering[run], bounds[run] - start
            m[a:a + dims[v], slot[pos[system.cols[v]]]] = system.rows[v]
            run += 1
        m = m[:, :f]
        ax[start:start + p] += m @ x[index]
        ax[index[p:]] += m[:, p:].T @ x[start:start + p]
        tails, waiting[i] = waiting[i], []  # drops the views once used
        if tails:
            _subtract_products(m, slot, tails)
        slot[start:start + p] = -1
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
            k = cols.searchsorted(start + p)
            if k < cols.size:
                waiting[owner[cols[k]]].append((cols[k:], rows[:, k:]))
    # the original pattern's entries are the store's; half the off-diagonal
    # ones lie above the diagonal
    nnz = sum(rows.size for rows in system.rows)
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
