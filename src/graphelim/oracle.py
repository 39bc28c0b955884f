"""Numeric ground truth: a synthetic SPD system and a counting Cholesky.

The elimination-cost metrics are structural; this module provides the
independent numeric side. `synthesize_system` builds a random symmetric
positive-definite matrix on a graph, nonzero exactly where the graph's
variable adjacency, expanded to blocks, says, and stores it by variable:
each variable's rows over its closed neighbourhood, so no n x n array is
ever made. `cholesky_count` factors it under a variable ordering,
left-looking by supernodes (Ng and Peyton 1993): one run of pivots per
variable, with its structure found by the elimination tree's set algebra
over the graph (Liu 1990), and one front per fundamental supernode of
runs, which gathers only its pivot rows over its index set from its
variables' rows and is factored by LAPACK Cholesky and solve. A front's
factor rows over its later columns wait on the front that owns the first
of them; that front subtracts the products of all the rows waiting on it,
one product per stack of rows, and passes each on, trimmed past its own
pivots, to the front that owns the next column. It tallies pivot by
pivot, from the fronts' widths, the multiplications of the scalar
right-looking Cholesky, whose column scaling by the reciprocal root spends
one division per pivot. No count comes from the elimination cost it is
meant to check; the factor is checked numerically on every call (R^T R x
against A x, with A read from the store, so a fault in the gather shows),
and a nonpositive pivot is named by the scalar loop on the pivot block
LAPACK refused. The fronts' (frontal, separator) dimensions are an
independent check of the clique tree.
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
    block of consecutive permuted positions. A run's update set, the
    structure of its columns of the factor, is the set of later runs among
    its neighbours and its children's update sets, and its parent is the
    update set's first run (the elimination tree, Liu 1990). A parent takes
    its first child's set as its own without a copy and joins the other
    children's sets to it, so the set run r pops is run r - 1's exactly
    when r - 1 is its only child. A run joins the front before it when that
    front's last run is its only child and the set gained no run (a
    fundamental supernode). Each front comes out as (index set of sorted
    permuted positions, pivot count).
    """
    graph_dims = graph.dims
    dims = [graph_dims[v] for v in ordering]
    run_dims = np.array(dims, dtype=np.intp)
    starts = np.cumsum(run_dims) - run_dims
    pos = {v: r for r, v in enumerate(ordering)}
    alive = set(range(len(dims)))  # variables not yet eliminated
    below: dict[int, set[int]] = {}  # a run's children's update sets, joined
    fronts: list[tuple[np.ndarray, int]] = []
    last, size = None, 0  # the previous run's update set and its size
    for r, v in enumerate(ordering):
        alive.discard(v)
        later = below.pop(r, set())  # becomes this run's update set
        only_child = later is last
        later.discard(r)
        later.update(map(pos.__getitem__, alive.intersection(graph.neighbors(v))))
        if only_child and len(later) == size - 1:
            fronts[-1] = (fronts[-1][0], fronts[-1][1] + dims[r])
        else:
            runs = np.array([r, *sorted(later)], dtype=np.intp)
            fronts.append((_scalars(starts, run_dims, runs), dims[r]))
        if later:  # the first child's set becomes its parent's; the others join it
            below.setdefault(min(later), later).update(later)
        last, size = later, len(later)
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
    count from the graph, by the elimination tree's set algebra over runs.
    The numeric pass visits the fronts in elimination order. A front is its
    pivots' original rows over its index set, gathered from its variables'
    stored rows (a spare last column takes the entries left of the front,
    which belong to earlier pivots), less the products of the factor rows
    waiting on it (`_subtract_products`), all of them at once. Once
    factored, the front adds its own rows to those that waited on it, and
    each one whose columns reach past the front's pivots waits next,
    trimmed to those columns, on the front that owns the first of them.
    Every column a descendant's rows touch at or after a pivot j lies in
    the structure of column j, so each waiting row fits its front's index
    set.
    Each panel of at most `_PANEL` pivot rows takes one Cholesky of its
    diagonal block, one solve against that factor for the rest of its rows
    and one product that updates the front's later pivot rows.
    Then `check_factor` compares R^T R x with the system's own A x, read
    from the store and not from the rows the fronts gathered, and raises
    FactorCheckError past a relative residual of `_CHECK_RTOL`.

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
    check_factor(count, system)
    return count


def check_factor(count: CholeskyCount, system: SparseSystem) -> float:
    """Relative residual |R^T R x - A x| / |A x| of a counted factorization
    against `system`, for one fixed x that is not constant; past
    `_CHECK_RTOL` it raises FactorCheckError. A x is read from the store,
    one product per variable's row block, so the check never sees the
    rows the fronts gathered. R x and then R^T (R x) run front by front: a
    front's rows of R x are its factor rows times x over its index set,
    read through the scalar order.
    """
    x = np.linspace(1.0, 2.0, system.n)
    ax = np.empty_like(x)
    for rows, cols, end in zip(system.rows, system.cols, itertools.accumulate(system.graph.dims)):
        ax[end - rows.shape[0]:end] = rows @ x[cols]
    z = np.zeros_like(x)
    for index, r in count.factor:
        at = count.scalar_order[index]  # the front's scalars in the system
        z[at] += r.T @ (r @ x[at])
    # |A x| is 0 only on the empty system, whose residual is then 0
    residual = float(np.linalg.norm(z - ax) / (np.linalg.norm(ax) or 1.0))
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
