"""Elimination trees, elimination cost, fill simulation, and orderings.

Eliminating a variable removes it from the elimination graph and connects
all of its remaining neighbors into a clique; edges created this way are
*fill*. The elimination cost of a full ordering is

    sum_i  d_f(i) * (d_f(i) + d_s(i))^2

where d_f(i) is the scalar dimension of the variable eliminated at step i
and d_s(i) the summed scalar dimension of its neighbors (the separator)
in the elimination graph at that step. This is an ordering-dependent,
values-independent proxy for the FLOPs of the matching sparse
factorization.

The cost needs only each d_s, which `elimination_tree` sums as it builds
each separator, once for the cost, the clique tree and the scalar count.
Explicit fill runs only where it is the product: the `simulate_elimination`
trace, and `min_degree_ordering`, which keeps it over supervariables
(groups of variables with equal closed neighborhoods). Each group holds its
closed neighborhood as an int with one bit per scalar, so a variable's exact
degree is a bit count and twin groups are those with equal ints.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph import FactorGraph, Kind, check_ordering
from .report import ParseError

BRUTE_FORCE_LIMIT = 10


@dataclass(frozen=True)
class Step:
    """One elimination step: who was eliminated, against which separator."""

    var_id: int
    frontal_dim: int
    separator_dim: int
    separator: frozenset[int]
    fill_added: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[Step, ...]

    def total_fill_edges(self) -> int:
        return sum(len(s.fill_added) for s in self.steps)

    def fill_edges(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for s in self.steps:
            out.update(s.fill_added)
        return out


def simulate_elimination(
    graph: FactorGraph, ordering: Sequence[int]
) -> EliminationTrace:
    """Run node elimination under `ordering`, recording separators and fill."""
    check_ordering(graph, ordering)
    adj = graph.adjacency()
    dims = graph.dims
    steps: list[Step] = []
    for v in ordering:
        nbrs = adj[v]
        adj[v] = set()
        fill: list[tuple[int, int]] = []
        for u in nbrs:
            au = adj[u]
            au.discard(v)
            new = nbrs - au
            new.discard(u)
            if new:
                au |= new
                fill += ((u, w) for w in new if u < w)
        d_s = sum(dims[u] for u in nbrs)
        steps.append(Step(v, dims[v], d_s, frozenset(nbrs), tuple(sorted(fill))))
    return EliminationTrace(tuple(steps))


# per variable id: tree parent (None at a root), separator, summed separator dims
EliminationTree = tuple[list[int | None], list[frozenset[int]], list[int]]


def elimination_tree(graph: FactorGraph, ordering: Sequence[int]) -> EliminationTree:
    """Elimination-tree parent, separator and separator dim of every variable.

    One pass in elimination order: v's separator is its higher-ordered
    neighbors joined with its children's separators, minus v itself (Liu
    1990), its separator dim d_s is that set's summed dims, and v's parent is
    the separator member eliminated earliest (None at a root). The
    higher-ordered neighbors are one intersection with the variables not yet
    eliminated. The union of v's children's separators becomes v's own set,
    which becomes or joins its parent's union in turn, so the only copy of a
    separator is the frozen one returned.
    """
    check_ordering(graph, ordering)
    pos = {v: i for i, v in enumerate(ordering)}
    alive = set(range(graph.n_vars))
    dims = graph.dims
    # union of the separators of each not yet eliminated variable's children
    below: dict[int, set[int]] = {}
    parent: list[int | None] = [None] * graph.n_vars
    separator: list[frozenset[int]] = [frozenset()] * graph.n_vars
    separator_dim = [0] * graph.n_vars
    for v in ordering:
        alive.discard(v)
        sep = below.pop(v, set())
        sep.discard(v)
        sep |= alive.intersection(graph.neighbors(v))
        if sep:
            separator[v] = frozenset(sep)
            separator_dim[v] = sum(map(dims.__getitem__, sep))
            p = parent[v] = ordering[min(map(pos.__getitem__, sep))]
            acc = below.setdefault(p, sep)
            if acc is not sep:
                acc |= sep
    return parent, separator, separator_dim


def elimination_complexity(
    graph: FactorGraph, ordering: Sequence[int], tree: EliminationTree | None = None
) -> int:
    """Total elimination cost sum d_f * (d_f + d_s)^2 under `ordering`.

    `tree` is `elimination_tree(graph, ordering)` when the caller already
    has it; without it the tree is built here.
    """
    *_, separator_dim = elimination_tree(graph, ordering) if tree is None else tree
    return sum(d * (d + s) ** 2 for d, s in zip(graph.dims, separator_dim))


def scalar_mult_count(graph: FactorGraph, ordering: Sequence[int]) -> int:
    """Exact multiplication count of scalar sparse Cholesky, (1/2) sum d(d+3).

    Only defined for all-scalar graphs (every variable dim 1); d is the
    degree of each eliminated node in its elimination graph. The final
    node has degree zero and contributes nothing.
    """
    if any(d != 1 for d in graph.dims):
        raise ValueError("scalar_mult_count requires all variables to have dim 1")
    *_, separator_dim = elimination_tree(graph, ordering)
    return sum(d * (d + 3) for d in separator_dim) // 2


# the initial bitsets are built this many bool entries (rows x scalars) at a time
_CHUNK = 1 << 18


def _bitsets(graph: FactorGraph) -> tuple[list[int], list[int]]:
    """Every variable's closed neighborhood as two ints: over scalars, in
    which variable u owns `dims[u]` consecutive bits in id order, and over
    variables, one bit each.

    Rows are built a chunk at a time, as a bool block widened to scalars
    and packed, so no array spans every edge.
    """
    n, dims = graph.n_vars, graph.dims
    rows = max(1, _CHUNK // sum(dims))
    scalar: list[int] = []
    var: list[int] = []
    for a in range(0, n, rows):
        nbrs = [graph.neighbors(v) for v in range(a, min(n, a + rows))]
        sizes = list(map(len, nbrs))
        block = np.zeros((len(nbrs), n), dtype=bool)
        block[
            np.repeat(np.arange(len(nbrs)), sizes),
            np.fromiter(itertools.chain.from_iterable(nbrs), np.intp, sum(sizes)),
        ] = True
        block[np.arange(len(nbrs)), np.arange(a, a + len(nbrs))] = True
        scalar += _row_ints(np.repeat(block, dims, axis=1))
        var += _row_ints(block)
    return scalar, var


def _row_ints(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D bool array as an int, column j as bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width)
    ]


def min_degree_ordering(graph: FactorGraph) -> list[int]:
    """Greedy minimum-degree ordering, block-aware.

    Degree is the summed scalar dimension of current elimination-graph
    neighbors. Ties break landmark-before-pose (a landmark's elimination
    cost can only stay put while an equal-degree pose defers it), then to
    the lowest variable id; the result is deterministic.

    The graph is kept over supervariables: groups of variables with equal
    closed neighborhoods, which stay equal until they are eliminated
    (George and Liu 1989). A group holds its closed neighborhood as an int
    in which variable u owns `dims[u]` consecutive bits, so member u's
    exact degree is the bit count less `dims[u]`, and a lazy heap of exact
    keys yields the least. Groups whose bitsets are equal are twins, an
    exact test, and merge into one. Group adjacency is a bitset over group
    ids as well, read through the mask of live groups, so a merged or
    emptied group leaves every neighbor's set by clearing one bit.
    Members leave one at a time, each at its own key: their dims and kinds
    differ, so eliminating a whole group at once would put other
    variables' keys out of order with theirs.
    """
    n = graph.n_vars
    if n == 0:
        raise ValueError("min_degree_ordering requires a nonempty graph")
    dims = graph.dims
    starts = list(itertools.accumulate(dims, initial=0))
    kind_rank = [0 if v.kind is Kind.LANDMARK else 1 for v in graph.variables]
    # per group, indexed by the variable it started from: its closed
    # neighborhood over scalars and over groups, and its alive members,
    # least key last
    closed, adj = _bitsets(graph)
    members = [[v] for v in range(n)]
    group = list(range(n))  # of each alive variable; -1 once eliminated
    live = (1 << n) - 1  # groups with alive members

    def member_key(v: int) -> tuple[int, int, int]:
        return dims[v], -kind_rank[v], -v

    heap: list[tuple[int, int, int]] = []

    def settle(touched: Iterable[int]) -> None:
        # merge twins among the touched groups, then push each survivor's key
        nonlocal live
        first: dict[int, int] = {}
        merged: set[int] = set()
        for t in touched:
            r = first.setdefault(closed[t], t)
            if r != t:
                for v in members[t]:
                    group[v] = r
                members[r] += members[t]
                members[t], closed[t], adj[t] = [], 0, 0
                live ^= 1 << t
                merged.add(r)
        for r in merged:
            members[r].sort(key=member_key)
        for c, t in first.items():
            u = members[t][-1]
            heapq.heappush(heap, (c.bit_count() - dims[u], kind_rank[u], u))

    settle(range(n))
    order: list[int] = []
    while len(order) < n:
        d, _, v = heapq.heappop(heap)
        s = group[v]
        if s < 0 or closed[s].bit_count() - dims[v] != d:
            continue  # stale: eliminated, or its degree changed since
        members[s].pop()
        group[v] = -1
        order.append(v)
        # each neighbor group t gains v's other neighbors: t's bitset joins
        # s's, both less v's bits, and t's groups join s's
        own = ((1 << dims[v]) - 1) << starts[v]
        union = closed[s] ^ own
        nbrs = adj[s] & live
        rest = nbrs ^ 1 << s  # the neighbor groups other than s
        if members[s]:
            closed[s] = union
            touched = [s]
        else:
            live ^= 1 << s
            nbrs = rest
            closed[s], adj[s] = 0, 0
            touched = []
        while rest:
            low = rest & -rest
            rest ^= low
            t = low.bit_length() - 1
            closed[t] = (closed[t] ^ own) | union
            adj[t] |= nbrs
            touched.append(t)
        settle(touched)
    return order


def landmark_first_ordering(graph: FactorGraph) -> list[int]:
    """All landmarks (ascending id), then all poses (ascending id)."""
    return graph.ids_of_kind(Kind.LANDMARK) + graph.ids_of_kind(Kind.POSE)


def natural_ordering(graph: FactorGraph) -> list[int]:
    """Insertion (id) order."""
    return list(range(graph.n_vars))


def optimal_ordering_bruteforce(graph: FactorGraph) -> tuple[list[int], int]:
    """Minimize elimination cost exactly over every ordering.

    Only feasible for tiny graphs; guarded at 10 variables. Returns the
    first minimizer in lexicographic permutation order together with its
    cost. Once a set S is eliminated, v's separator is the set of variables
    outside S that v reaches through S, whatever order S went in (Rose,
    Tarjan and Lueker 1976), so the search is a dynamic program over S.
    """
    n = graph.n_vars
    if n == 0:
        raise ValueError("graph is empty")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} variables, got {n}"
        )
    dims = graph.dims
    adj = [sum(1 << u for u in nbrs) for nbrs in graph.adjacency()]
    # summed scalar dimension and union of neighbors of every subset
    dimsum = [0] * (1 << n)
    nbrsum = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        dimsum[mask] = dimsum[mask & (mask - 1)] + dims[low]
        nbrsum[mask] = nbrsum[mask & (mask - 1)] | adj[low]

    def step_cost(done: int, v: int) -> int:
        # grow v's component within `done`; its outside neighbors are v's separator
        comp, grown = 0, 1 << v
        while grown != comp:
            comp = grown
            grown = comp | nbrsum[comp] & done
        return dims[v] * (dims[v] + dimsum[nbrsum[comp] & ~(done | comp)]) ** 2

    full = (1 << n) - 1
    # best[done]: least cost of eliminating the variables outside `done`, and
    # the smallest variable that can go first at that cost
    best = [(0, -1)] * (full + 1)
    for done in range(full - 1, -1, -1):
        best[done] = min(
            (step_cost(done, v) + best[done | 1 << v][0], v)
            for v in range(n)
            if not done >> v & 1
        )
    order: list[int] = []
    done = 0
    while done != full:
        order.append(best[done][1])
        done |= 1 << order[-1]
    return order, best[0][0]


ORDERING_FUNCTIONS: dict[str, Callable[[FactorGraph], list[int]]] = {
    "min_degree": min_degree_ordering,
    "landmark_first": landmark_first_ordering,
    "natural": natural_ordering,
}


# -- file exports ----------------------------------------------------------


def save_ordering(ordering: Sequence[int], path: str | Path) -> None:
    Path(path).write_text(
        "".join(f"{v}\n" for v in ordering), encoding="utf-8", newline="\n"
    )


def load_ordering(path: str | Path) -> list[int]:
    path = Path(path)
    out: list[int] = []
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise ParseError(str(path), line_no, f"expected integer, got {line!r}")
    return out


def trace_to_csv(trace: EliminationTrace) -> str:
    lines = ["step,var_id,d_f,d_s,fill_added"]
    for i, s in enumerate(trace.steps):
        lines.append(
            f"{i},{s.var_id},{s.frontal_dim},{s.separator_dim},{len(s.fill_added)}"
        )
    return "\n".join(lines) + "\n"
