"""Shared random-instance generators and small brute-force oracles."""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import Iterable, Sequence

import numpy as np
from hypothesis import strategies as st

from graphelim.cliquetree import Clique, CliqueTree
from graphelim.elimination import BRUTE_FORCE_LIMIT, EliminationTrace, Step
from graphelim.graph import Factor, FactorGraph, Kind, Variable, check_ordering
from graphelim.oracle import (
    CholeskyCount,
    NotPositiveDefiniteError,
    SparseSystem,
    scalar_permutation,
)
from graphelim.pruning import (
    _REFRESH_EVERY,
    PruneResult,
    _check_distinct,
    _check_rate,
    _result,
    prune_decimate,
)
from graphelim.simulate import (
    DEFAULT_LANDMARK_DIM,
    DEFAULT_POSE_DIM,
    Frame,
    ObservationLog,
)


class ReferenceGraph:
    """The per-factor graph builder: checks and inserts one record at a time.

    The reference for `FactorGraph`'s constructor, which must give equal
    variables, factors and adjacency, and raise the same `ValueError` text
    for the first bad record. `build()` hands the records to the constructor.
    """

    def __init__(self) -> None:
        self.variables: list[Variable] = []
        self.factors: list[Factor] = []
        self._adj: list[set[int]] = []

    def add_variable(self, kind: Kind, dim: int) -> int:
        if dim < 1:
            raise ValueError(f"variable dim must be >= 1, got {dim}")
        vid = len(self.variables)
        self.variables.append(Variable(vid, kind, dim))
        self._adj.append(set())
        return vid

    def add_factor(self, var_ids: Iterable[int]) -> int:
        ids = tuple(var_ids)
        if len(ids) < 1:
            raise ValueError("factor needs at least one variable")
        seen: set[int] = set()
        for v in ids:
            if not 0 <= v < len(self.variables):
                raise ValueError(f"factor references unknown variable {v}")
            if v in seen:
                raise ValueError(f"duplicate variable {v} in factor")
            seen.add(v)
        fid = len(self.factors)
        self.factors.append(Factor(fid, ids))
        for i, u in enumerate(ids):
            for w in ids[i + 1:]:
                self._adj[u].add(w)
                self._adj[w].add(u)
        return fid

    def adjacency(self) -> list[set[int]]:
        return [set(s) for s in self._adj]

    def neighbors(self, var_id: int) -> frozenset[int]:
        return frozenset(self._adj[var_id])

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def build(self) -> FactorGraph:
        return FactorGraph(
            [v.kind for v in self.variables],
            [v.dim for v in self.variables],
            [v for f in self.factors for v in f.vars],
            list(itertools.accumulate((len(f.vars) for f in self.factors), initial=0)),
        )


@st.composite
def graph_records(draw, valid: bool = True):
    """Variable kinds and dims, then factors as id lists (arity 1-4, dims 1-6).

    With `valid=False`, dims may be 0, factors may be empty, and ids may
    repeat or fall outside the declared variables.
    """
    dims = draw(st.lists(st.integers(1 if valid else 0, 6), max_size=8))
    kinds = draw(st.lists(st.sampled_from(Kind), min_size=len(dims), max_size=len(dims)))
    n = len(dims)
    if not valid:
        factor = st.lists(st.integers(-1, n + 1), max_size=4)
    elif n:
        factor = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n), unique=True)
    else:
        return kinds, dims, []
    return kinds, dims, draw(st.lists(factor, max_size=12))


def graph_from_records(kinds, dims, factors) -> FactorGraph:
    """`FactorGraph` from `graph_records`' lists, as flat ids and offsets."""
    offsets = list(itertools.accumulate(map(len, factors), initial=0))
    return FactorGraph(kinds, dims, [v for f in factors for v in f], offsets)


def running_intersection_holds(tree: CliqueTree) -> bool:
    """Check that each variable's cliques form a connected subtree."""
    occupied: dict[int, list[int]] = {}
    for ci, c in enumerate(tree.cliques):
        for v in list(c.frontal) + list(c.separator):
            occupied.setdefault(v, []).append(ci)
    for cliques in occupied.values():
        members = set(cliques)
        # walk up from an arbitrary member; all others must reach the
        # highest member through members only
        top: set[int] = set()
        for ci in members:
            path = []
            cur: int | None = ci
            while cur is not None and cur in members:
                path.append(cur)
                cur = tree.cliques[cur].parent
            top.add(path[-1])
        if len(top) != 1:
            return False
    return True


def scalar_graph(n: int, edges) -> FactorGraph:
    g = ReferenceGraph()
    for _ in range(n):
        g.add_variable(Kind.POSE, 1)
    for e in edges:
        g.add_factor(e)
    return g.build()


def complete_graph(n: int) -> FactorGraph:
    return scalar_graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> FactorGraph:
    return scalar_graph(n, zip(range(n - 1), range(1, n)))


def random_scalar_graph(rng: random.Random, n: int, density: float) -> FactorGraph:
    g = ReferenceGraph()
    for _ in range(n):
        g.add_variable(Kind.POSE, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                g.add_factor((i, j))
    return g.build()


def random_block_graph(
    rng: random.Random,
    n_min: int = 4,
    n_max: int = 12,
    density: float = 0.35,
    dims=(1, 2, 3, 6),
    connected: bool = True,
) -> FactorGraph:
    g = ReferenceGraph()
    n = rng.randint(n_min, n_max)
    for _ in range(n):
        g.add_variable(rng.choice([Kind.POSE, Kind.LANDMARK]), rng.choice(dims))
    if connected:
        for i in range(n - 1):
            g.add_factor((i, i + 1))
    lo = 2 if connected else 1
    for i in range(n):
        for j in range(i + lo, n):
            if rng.random() < density:
                g.add_factor((i, j))
    return g.build()


def random_tree_graph(rng: random.Random, n: int) -> FactorGraph:
    g = ReferenceGraph()
    for _ in range(n):
        g.add_variable(Kind.POSE, 1)
    for v in range(1, n):
        g.add_factor((rng.randrange(v), v))
    return g.build()


def random_ordering(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def random_graph_and_ordering(rng: random.Random) -> tuple[FactorGraph, list[int]]:
    """A block graph of 1-14 variables, connected or not, and a random ordering."""
    g = random_block_graph(
        rng,
        n_min=1,
        n_max=14,
        density=rng.uniform(0.0, 0.7),
        connected=rng.random() < 0.5,
    )
    return g, random_ordering(rng, g.n_vars)


def random_twin_graph(rng: random.Random) -> FactorGraph:
    """A block graph rich in twins, for the supervariable min-degree kernel.

    Most variables copy the open neighborhood of an earlier variable (a
    false twin) or its closed neighborhood (a true twin); the rest join
    earlier variables at random. Kinds mix, dims are 1, 2, 3 or 6, and up
    to three 3-ary factors are added at the end.
    """
    g = ReferenceGraph()
    n = rng.randint(1, 16)
    for v in range(n):
        g.add_variable(rng.choice([Kind.POSE, Kind.LANDMARK]), rng.choice((1, 2, 3, 6)))
        if v and rng.random() < 0.6:
            twin = rng.randrange(v)
            for u in sorted(g.neighbors(twin)):
                g.add_factor((u, v))
            if rng.random() < 0.5:
                g.add_factor((twin, v))
        else:
            for u in range(v):
                if rng.random() < 0.3:
                    g.add_factor((u, v))
    if n >= 3:
        for _ in range(rng.randint(0, 3)):
            g.add_factor(rng.sample(range(n), 3))
    return g.build()


def count_spanning_trees(n: int, edges) -> int:
    """Exhaustive spanning-tree count over all (n-1)-edge subsets."""
    edges = list(edges)
    count = 0
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def scalar_pattern(graph: FactorGraph) -> np.ndarray:
    """The graph's scalar sparsity pattern: its variable adjacency, with
    each variable adjacent to itself, repeated into dim x dim blocks."""
    adjacent = np.eye(graph.n_vars, dtype=bool)
    for v in range(graph.n_vars):
        adjacent[v, list(graph.neighbors(v))] = True
    return adjacent.repeat(graph.dims, 0).repeat(graph.dims, 1)


def dense(system: SparseSystem) -> np.ndarray:
    """The system's n x n matrix, assembled from its variable rows."""
    a = np.zeros((system.n, system.n))
    start = 0
    for rows, cols in zip(system.rows, system.cols):
        a[start:start + rows.shape[0], cols] = rows
        start += rows.shape[0]
    return a


def with_diagonal(system: SparseSystem, i: int, value: float) -> SparseSystem:
    """A copy of the system whose diagonal entry (i, i) is `value`."""
    ends = list(itertools.accumulate(system.graph.dims))
    v = bisect.bisect_right(ends, i)
    rows = list(system.rows)
    rows[v] = rows[v].copy()
    rows[v][i - ends[v] + rows[v].shape[0], np.searchsorted(system.cols[v], i)] = value
    return SparseSystem(tuple(rows), system.graph)


def reference_cholesky_count(
    system: SparseSystem, ordering: Sequence[int]
) -> CholeskyCount:
    """Scalar right-looking Cholesky: one gather and scatter per pivot.

    The unblocked loop the supernodal `cholesky_count` must agree with
    exactly: same counts, same error index, same factor. Its factor is one
    front over every position, holding the dense R.
    """
    perm = scalar_permutation(system, ordering)
    val = dense(system)[np.ix_(perm, perm)]
    pat = scalar_pattern(system.graph)[np.ix_(perm, perm)]
    n = system.n
    factor = np.zeros((n, n))
    mult = 0
    div = 0
    fill = 0
    for k in range(n):
        pivot = val[k, k]
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(
                f"nonpositive pivot {pivot:.6g} at elimination index {k}"
            )
        root = math.sqrt(pivot)
        inv_root = 1.0 / root
        div += 1
        factor[k, k] = root
        idx = np.flatnonzero(pat[k, k + 1:]) + (k + 1)
        d = idx.size
        if d == 0:
            continue
        col = val[k, idx] * inv_root
        factor[k, idx] = col
        mult += d + d * (d + 1) // 2
        sub = pat[np.ix_(idx, idx)]
        fill += (d * d - int(sub.sum())) // 2
        pat[np.ix_(idx, idx)] = True
        val[np.ix_(idx, idx)] -= np.outer(col, col)
    return CholeskyCount(mult, div, fill, ((np.arange(n), factor),), perm)


def dense_factor(count: CholeskyCount) -> np.ndarray:
    """The upper-triangular R in permuted order, assembled from the fronts."""
    n = count.scalar_order.size
    r = np.zeros((n, n))
    for index, rows in count.factor:
        r[np.ix_(index[: rows.shape[0]], index)] = rows
    return r


def reference_clique_tree(
    graph: FactorGraph, ordering: Sequence[int], amalgamate: bool = True
) -> CliqueTree:
    """Clique tree read off a full fill simulation.

    The reference for `build_clique_tree`, which reads the same parents and
    separators off the elimination tree; the two must be equal on every
    nonempty graph.
    """
    trace = reference_simulate_elimination(graph, ordering)
    n = graph.n_vars
    pos = {v: i for i, v in enumerate(ordering)}
    sep = {s.var_id: s.separator for s in trace.steps}
    dims = graph.dims

    # elimination-tree parent: earliest-eliminated separator variable
    etree_children = [0] * n
    for v in ordering:
        if sep[v]:
            parent = min(sep[v], key=pos.__getitem__)
            etree_children[parent] += 1

    # group consecutive positions into supernodes
    runs: list[list[int]] = []
    current = [ordering[0]]
    for i in range(1, n):
        u, w = ordering[i - 1], ordering[i]
        merged = (
            amalgamate
            and etree_children[w] == 1
            and sep[u] == frozenset({w}) | sep[w]
        )
        if merged:
            current.append(w)
        else:
            runs.append(current)
            current = [w]
    runs.append(current)

    clique_of_var = {}
    for ci, run in enumerate(runs):
        for v in run:
            clique_of_var[v] = ci

    parents: list[int | None] = []
    for run in runs:
        separator = sep[run[-1]]
        if separator:
            first_out = min(separator, key=pos.__getitem__)
            parents.append(clique_of_var[first_out])
        else:
            parents.append(None)

    children: list[list[int]] = [[] for _ in runs]
    for ci, p in enumerate(parents):
        if p is not None:
            children[p].append(ci)

    cliques = []
    for ci, run in enumerate(runs):
        separator = sep[run[-1]]
        cliques.append(
            Clique(
                frontal=tuple(run),
                separator=separator,
                frontal_dim=sum(dims[v] for v in run),
                separator_dim=sum(dims[v] for v in separator),
                parent=parents[ci],
                children=tuple(children[ci]),
            )
        )
    return CliqueTree(tuple(cliques))


def reference_build_graph(
    log: ObservationLog,
    d_x: int = DEFAULT_POSE_DIM,
    d_l: int = DEFAULT_LANDMARK_DIM,
    min_obs_to_init: int = 2,
) -> FactorGraph:
    """Graph builder that counts observations, then rescans every frame
    once per initialized landmark.

    The reference for the one-pass `build_graph`: equal variables and
    equal factor tuples, in the same order, on every log whose frame
    indices strictly increase.
    """
    g = ReferenceGraph()
    pose_var: dict[int, int] = {}
    for f in log.frames:
        pose_var[f.index] = g.add_variable(Kind.POSE, d_x)

    counts: dict[int, int] = {}
    for f in log.frames:
        for lm in f.observations:
            counts[lm] = counts.get(lm, 0) + 1
    initialized = sorted(lm for lm, c in counts.items() if c >= min_obs_to_init)
    lm_var = {lm: g.add_variable(Kind.LANDMARK, d_l) for lm in initialized}

    for prev, cur in zip(log.frames, log.frames[1:]):
        g.add_factor((pose_var[prev.index], pose_var[cur.index]))
    for lm in initialized:
        for f in log.frames:
            if lm in f.observations:
                g.add_factor((pose_var[f.index], lm_var[lm]))
    return g.build()


def reference_worst_case_graph(
    n_x: int,
    n_l: int,
    d_x: int = DEFAULT_POSE_DIM,
    d_l: int = DEFAULT_LANDMARK_DIM,
) -> FactorGraph:
    """The worst-case graph written out loop by loop: odometry first, then
    each landmark's factors to every pose. The reference for
    `worst_case_graph`, whose text must equal this graph's byte for byte.
    """
    g = ReferenceGraph()
    for _ in range(n_x):
        g.add_variable(Kind.POSE, d_x)
    for _ in range(n_l):
        g.add_variable(Kind.LANDMARK, d_l)
    for i in range(n_x - 1):
        g.add_factor((i, i + 1))
    for j in range(n_l):
        for i in range(n_x):
            g.add_factor((i, n_x + j))
    return g.build()


def reference_graph_to_text(graph: FactorGraph) -> str:
    """The graph's text built one f-string per line. The reference for
    `graph_to_text`, which must return the same string."""
    lines = [f"V {v.id} {v.kind.value} {v.dim}" for v in graph.variables]
    lines += [f"F {f.id} " + " ".join(map(str, f.vars)) for f in graph.factors]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_log_to_text(log: ObservationLog) -> str:
    """The log's text built one f-string per line. The reference for
    `log_to_text`, which must return the same string."""
    lines = []
    for f in log.frames:
        lines.append(f"FRAME {f.index}")
        for lm in f.observations:
            lines.append(f"OBS {lm}")
    return "\n".join(lines) + ("\n" if lines else "")


def reference_prune_random(log: ObservationLog, r: int, seed: int = 0) -> PruneResult:
    """Uniformly random subset, count-matched to decimation at the same r.

    Each landmark's first observation is always retained; otherwise
    landmarks would drop out of the graph entirely and the comparison
    would confound node count with edge structure.
    """
    _check_rate(r)
    _check_distinct(log)
    target = prune_decimate(log, r).retained
    first = log.first_seen()
    forced = {(frame, lm) for lm, frame in first.items()}
    pool = [obs for obs in log.observations() if obs not in forced]
    extra = target - len(forced)
    if extra < 0:
        raise ValueError("decimation budget below one observation per landmark")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pool), size=extra, replace=False) if extra else []
    keep = forced | {pool[i] for i in picked}
    frames = [
        Frame(f.index, tuple(lm for lm in f.observations if (f.index, lm) in keep))
        for f in log.frames
    ]
    return _result(frames)


def reference_prune_tgreedy(
    log: ObservationLog, r: int, budget: int | None = None
) -> PruneResult:
    """Greedy tree-connectivity selection, count-matched to decimation.

    Starting from the odometry chain plus one observation per landmark
    (the initialization floor), repeatedly add the observation edge that
    maximizes the spanning-tree count of the retained variable-adjacency
    graph. By the matrix-tree theorem the count is det of the reduced
    Laplacian, and adding edge (u, v) scales it by 1 + q with
    q = b^T L^{-1} b, b = e_u - e_v, so each step just maximizes the
    quadratic form; the inverse is maintained by rank-one updates and
    periodically refreshed from scratch to contain roundoff.
    """
    _check_rate(r)
    if not log.frames:
        raise ValueError("tgreedy needs a log with at least one frame")
    _check_distinct(log)
    if budget is None:
        budget = prune_decimate(log, r).retained
    first = log.first_seen()
    landmarks = sorted(first)
    n_frames = len(log.frames)
    frame_index = {f.index: i for i, f in enumerate(log.frames)}
    lm_index = {lm: n_frames + i for i, lm in enumerate(landmarks)}
    n = n_frames + len(landmarks)

    selected = {(frame, lm) for lm, frame in first.items()}
    if budget < len(selected):
        raise ValueError("budget below one observation per landmark")
    candidates = sorted(o for o in log.observations() if o not in selected)

    # reduced Laplacian: ground vertex 0 (the first pose) removed
    L = np.zeros((n - 1, n - 1))

    def add_edge(a: int, b: int, mat: np.ndarray) -> None:
        ia, ib = a - 1, b - 1
        if ia >= 0:
            mat[ia, ia] += 1.0
        if ib >= 0:
            mat[ib, ib] += 1.0
        if ia >= 0 and ib >= 0:
            mat[ia, ib] -= 1.0
            mat[ib, ia] -= 1.0

    for i in range(n_frames - 1):
        add_edge(i, i + 1, L)
    for frame, lm in selected:
        add_edge(frame_index[frame], lm_index[lm], L)

    remaining = budget - len(selected)
    if remaining and candidates:
        minv = np.linalg.inv(L)
        cu = np.array([frame_index[f] - 1 for f, _ in candidates])
        cv = np.array([lm_index[lm] - 1 for _, lm in candidates])
        alive = np.ones(len(candidates), dtype=bool)
        since_refresh = 0
        for _ in range(min(remaining, len(candidates))):
            diag = np.diag(minv)
            gains = np.where(cu >= 0, diag[np.maximum(cu, 0)], 0.0) + diag[cv]
            cross = np.where(cu >= 0, minv[np.maximum(cu, 0), cv], 0.0)
            gains -= 2.0 * cross
            gains[~alive] = -np.inf
            best = int(np.argmax(gains))
            q = gains[best]
            if q <= 0.0:
                # SPD structure forbids this; roundoff has degraded the inverse
                minv = np.linalg.inv(L)
                since_refresh = 0
                diag = np.diag(minv)
                g = (0.0 if cu[best] < 0 else diag[cu[best]]) + diag[cv[best]]
                g -= 0.0 if cu[best] < 0 else 2.0 * minv[cu[best], cv[best]]
                q = g
                if q <= 0.0:
                    raise RuntimeError(
                        "tree-connectivity update is numerically ill-conditioned"
                    )
            frame, lm = candidates[best]
            selected.add((frame, lm))
            alive[best] = False
            b = np.zeros(n - 1)
            if cu[best] >= 0:
                b[cu[best]] = 1.0
            b[cv[best]] -= 1.0
            add_edge(frame_index[frame], lm_index[lm], L)
            w = minv @ b
            minv -= np.outer(w, w) / (1.0 + q)
            since_refresh += 1
            if since_refresh >= _REFRESH_EVERY:
                minv = np.linalg.inv(L)
                since_refresh = 0

    frames = [
        Frame(
            f.index,
            tuple(lm for lm in f.observations if (f.index, lm) in selected),
        )
        for f in log.frames
    ]
    return _result(frames)


def reference_eliminate(
    adj: list[set[int]], v: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """Eliminate `v` in place; return its sorted neighbors and the fill pairs added.

    The pairwise fill loop: the reference for the fill step of
    `simulate_elimination` and `min_degree_ordering`.
    """
    nbrs = sorted(adj[v])
    fill: list[tuple[int, int]] = []
    for i, u in enumerate(nbrs):
        au = adj[u]
        for w in nbrs[i + 1:]:
            if w not in au:
                au.add(w)
                adj[w].add(u)
                fill.append((u, w))
    for u in nbrs:
        adj[u].discard(v)
    adj[v].clear()
    return nbrs, fill


def reference_simulate_elimination(
    graph: FactorGraph, ordering: Sequence[int]
) -> EliminationTrace:
    """Run node elimination under `ordering`, recording separators and fill.

    The reference for `simulate_elimination`; traces must be equal.
    """
    check_ordering(graph, ordering)
    adj = graph.adjacency()
    dims = graph.dims
    steps: list[Step] = []
    for v in ordering:
        nbrs, fill = reference_eliminate(adj, v)
        d_s = sum(dims[u] for u in nbrs)
        steps.append(Step(v, dims[v], d_s, frozenset(nbrs), tuple(fill)))
    return EliminationTrace(tuple(steps))


def reference_min_degree_ordering(graph: FactorGraph) -> list[int]:
    """Greedy minimum-degree ordering, block-aware.

    Degree is the summed scalar dimension of current elimination-graph
    neighbors. Ties break landmark-before-pose, then to the lowest
    variable id. The reference for `min_degree_ordering`, which must give
    the same ordering.
    """
    n = graph.n_vars
    if n == 0:
        raise ValueError("min_degree_ordering requires a nonempty graph")
    adj = graph.adjacency()
    dims = graph.dims
    kind_rank = [0 if v.kind is Kind.LANDMARK else 1 for v in graph.variables]
    deg = [sum(dims[u] for u in adj[v]) for v in range(n)]
    alive = set(range(n))
    order: list[int] = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], kind_rank[u], u))
        nbrs, fill = reference_eliminate(adj, v)
        for u, w in fill:
            deg[u] += dims[w]
            deg[w] += dims[u]
        for u in nbrs:
            deg[u] -= dims[v]
        alive.remove(v)
        order.append(v)
    return order


def reference_optimal_ordering_bruteforce(graph: FactorGraph) -> tuple[list[int], int]:
    """Exhaustively minimize elimination cost over every permutation.

    Only feasible for tiny graphs; guarded at 10 variables. Returns the
    first minimizer in lexicographic permutation order together with its
    cost. Uses a bitmask elimination kernel to keep the n! loop tolerable.
    The reference for `optimal_ordering_bruteforce`.
    """
    n = graph.n_vars
    if n == 0:
        raise ValueError("graph is empty")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} variables, got {n}"
        )
    dims = graph.dims
    base_adj = [0] * n
    for v, nbrs in enumerate(graph.adjacency()):
        for u in nbrs:
            base_adj[v] |= 1 << u
    # summed scalar dimension for every subset of variables
    dimsum = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        dimsum[mask] = dimsum[mask & (mask - 1)] + dims[low]

    best_ec: int | None = None
    best_perm: tuple[int, ...] | None = None
    full = (1 << n) - 1
    for perm in itertools.permutations(range(n)):
        adj = list(base_adj)
        alive = full
        ec = 0
        for v in perm:
            nb = adj[v] & alive & ~(1 << v)
            ec += dims[v] * (dims[v] + dimsum[nb]) ** 2
            if best_ec is not None and ec >= best_ec:
                break
            alive &= ~(1 << v)
            m = nb
            while m:
                u = (m & -m).bit_length() - 1
                adj[u] |= nb
                m &= m - 1
        else:
            if best_ec is None or ec < best_ec:
                best_ec = ec
                best_perm = perm
    assert best_perm is not None and best_ec is not None
    return list(best_perm), best_ec
