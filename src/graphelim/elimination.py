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
(groups of variables with equal closed neighborhoods) and reads each
variable's exact degree off its group.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


def min_degree_ordering(graph: FactorGraph) -> list[int]:
    """Greedy minimum-degree ordering, block-aware.

    Degree is the summed scalar dimension of current elimination-graph
    neighbors. Ties break landmark-before-pose (a landmark's elimination
    cost can only stay put while an equal-degree pose defers it), then to
    the lowest variable id; the result is deterministic.

    The graph is kept over supervariables: groups of variables with equal
    closed neighborhoods, which stay equal until they are eliminated
    (George and Liu 1989). A group keeps the summed dimension `weight` of
    its closed neighborhood, so member `u` has the exact degree
    `weight - dims[u]`, and a lazy heap of exact keys yields the least.
    Members leave one at a time, each at its own key: their dims and kinds
    differ, so eliminating a whole group at once would put other
    variables' keys out of order with theirs.
    """
    n = graph.n_vars
    if n == 0:
        raise ValueError("min_degree_ordering requires a nonempty graph")
    dims = graph.dims
    kind_rank = [0 if v.kind is Kind.LANDMARK else 1 for v in graph.variables]
    rng = random.Random(0)
    tag = [rng.getrandbits(60) for _ in range(n)]  # hashes closed neighborhoods
    # per group, indexed by the variable it started from: adjacent groups,
    # alive members (least key last), their summed dims and tags, and the
    # summed dims and tags of the closed neighborhood
    adj = graph.adjacency()
    members = [[v] for v in range(n)]
    size, tags = list(dims), list(tag)
    weight = [dims[v] + sum(map(dims.__getitem__, adj[v])) for v in range(n)]
    closure = [tag[v] + sum(map(tag.__getitem__, adj[v])) for v in range(n)]
    group = list(range(n))  # of each alive variable; -1 once eliminated

    def member_key(v: int) -> tuple[int, int, int]:
        return dims[v], -kind_rank[v], -v

    def merge_twins(touched: Iterable[int]) -> None:
        first: dict[int, int] = {}
        for t in touched:
            r = first.setdefault(closure[t], t)
            if r != t and adj[r] ^ adj[t] == {r, t}:  # equal closed neighborhoods
                for x in adj[t]:
                    adj[x].discard(t)
                for v in members[t]:
                    group[v] = r
                members[r] = sorted(members[r] + members[t], key=member_key)
                adj[t], members[t] = set(), []
                size[r] += size[t]
                tags[r] += tags[t]

    merge_twins(range(n))
    heap = [(weight[v] - dims[v], kind_rank[v], v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    while len(order) < n:
        d, _, v = heapq.heappop(heap)
        s = group[v]
        if s < 0 or weight[s] - dims[v] != d:
            continue  # stale: eliminated, or its degree changed since
        members[s].pop()
        group[v] = -1
        order.append(v)
        size[s] -= dims[v]
        tags[s] -= tag[v]
        nbrs, gone = adj[s], not members[s]
        for t in nbrs:
            at = adj[t]
            if gone:
                at.discard(s)
            weight[t] -= dims[v]
            closure[t] -= tag[v]
            new = nbrs - at
            new.discard(t)
            if new:
                at |= new
                weight[t] += sum(map(size.__getitem__, new))
                closure[t] += sum(map(tags.__getitem__, new))
        touched = list(nbrs)
        if gone:
            adj[s] = set()
        else:
            touched.append(s)
            weight[s] -= dims[v]
            closure[s] -= tag[v]
        for t in touched:
            u = members[t][-1]
            heapq.heappush(heap, (weight[t] - dims[u], kind_rank[u], u))
        merge_twins(touched)
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
