"""Shared random-instance generators and small brute-force oracles."""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

import numpy as np

from graphelim.cliquetree import Clique, CliqueTree
from graphelim.elimination import simulate_elimination
from graphelim.graph import FactorGraph, Kind
from graphelim.oracle import (
    CholeskyCount,
    NotPositiveDefiniteError,
    SparseSystem,
    scalar_permutation,
)
from graphelim.simulate import (
    DEFAULT_LANDMARK_DIM,
    DEFAULT_POSE_DIM,
    ObservationLog,
)


def scalar_graph(n: int, edges) -> FactorGraph:
    g = FactorGraph()
    for _ in range(n):
        g.add_variable(Kind.POSE, 1)
    for e in edges:
        g.add_factor(e)
    return g


def complete_graph(n: int) -> FactorGraph:
    return scalar_graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> FactorGraph:
    return scalar_graph(n, zip(range(n - 1), range(1, n)))


def random_scalar_graph(rng: random.Random, n: int, density: float) -> FactorGraph:
    g = FactorGraph()
    for _ in range(n):
        g.add_variable(Kind.POSE, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                g.add_factor((i, j))
    return g


def random_block_graph(
    rng: random.Random,
    n_min: int = 4,
    n_max: int = 12,
    density: float = 0.35,
    dims=(1, 2, 3, 6),
    connected: bool = True,
) -> FactorGraph:
    g = FactorGraph()
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
    return g


def random_tree_graph(rng: random.Random, n: int) -> FactorGraph:
    g = FactorGraph()
    for _ in range(n):
        g.add_variable(Kind.POSE, 1)
    for v in range(1, n):
        g.add_factor((rng.randrange(v), v))
    return g


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


def reference_cholesky_count(
    system: SparseSystem, ordering: Sequence[int]
) -> CholeskyCount:
    """Scalar right-looking Cholesky: one gather and scatter per pivot.

    The unblocked loop the multifrontal `cholesky_count` must agree with
    exactly: same counts, same error index, same factor. Its factor is one
    front over every position, holding the dense R.
    """
    perm = scalar_permutation(system, ordering)
    val = system.values[np.ix_(perm, perm)].copy()
    pat = system.pattern[np.ix_(perm, perm)].copy()
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
    trace = simulate_elimination(graph, ordering)
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
    g = FactorGraph()
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
    return g


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
    g = FactorGraph()
    for _ in range(n_x):
        g.add_variable(Kind.POSE, d_x)
    for _ in range(n_l):
        g.add_variable(Kind.LANDMARK, d_l)
    for i in range(n_x - 1):
        g.add_factor((i, i + 1))
    for j in range(n_l):
        for i in range(n_x):
            g.add_factor((i, n_x + j))
    return g
