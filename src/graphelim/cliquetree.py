"""Multifrontal clique trees built from the elimination tree.

Each variable's elimination clique is {var} union its separator; both the
separator and its summed dims d_s are read off `elimination_tree`, and a
clique takes those of its last variable. Consecutive variables amalgamate
into one supernode (strict / fundamental supernodes, Liu, Ng and Peyton
1993; no relaxed amalgamation) when the later variable w has exactly one
child in the elimination tree, that child is the variable `prev`
eliminated just before it, and |sep(prev)| = |sep(w)| + 1. The size test
is exact: when w is prev's parent, sep(prev) - {w} is a subset of sep(w),
so the sizes agree iff sep(prev) = {w} union sep(w), and no set is
compared or built. The per-clique cost sum d_f(C) * (d_f(C) + d_s(C))^2 is
the clique-tree analogue of the per-variable elimination cost; a caller
that needs both builds the elimination tree once and passes it to each.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .elimination import EliminationTree, elimination_tree
# bound here so that bench/traced.py can rebind it as a module attribute
from .elimination import simulate_elimination  # noqa: F401
from .graph import FactorGraph


@dataclass(frozen=True)
class Clique:
    """Frontal variables (in elimination order) plus their separator."""

    frontal: tuple[int, ...]
    separator: frozenset[int]
    frontal_dim: int
    separator_dim: int
    parent: int | None
    children: tuple[int, ...]


@dataclass(frozen=True)
class CliqueTree:
    cliques: tuple[Clique, ...]

    @property
    def roots(self) -> list[int]:
        return [i for i, c in enumerate(self.cliques) if c.parent is None]

    @property
    def root(self) -> Clique:
        roots = self.roots
        if len(roots) != 1:
            raise ValueError(f"expected a single root, found {len(roots)}")
        return self.cliques[roots[0]]


def build_clique_tree(
    graph: FactorGraph,
    ordering: Sequence[int],
    amalgamate: bool = True,
    tree: EliminationTree | None = None,
) -> CliqueTree:
    """Supernodal clique tree for `graph` eliminated under `ordering`.

    With ``amalgamate=False`` every variable keeps its own singleton
    clique, in which case the clique-tree cost degenerates to the
    per-variable elimination cost exactly. `tree` is
    `elimination_tree(graph, ordering)` when the caller already has it.
    """
    parent, sep, sep_dim = elimination_tree(graph, ordering) if tree is None else tree
    dims = graph.dims
    etree_children = Counter(parent)

    # group consecutive positions into supernodes; runs[-1][-1] is the
    # variable eliminated just before w
    runs: list[list[int]] = []
    for w in ordering:
        if amalgamate and runs and etree_children[w] == 1:
            prev = runs[-1][-1]
            if parent[prev] == w and len(sep[prev]) == len(sep[w]) + 1:
                runs[-1].append(w)
                continue
        runs.append([w])

    # a clique's parent holds the tree parent of its last frontal variable
    clique_of_var = {v: ci for ci, run in enumerate(runs) for v in run}
    parents = [clique_of_var.get(parent[run[-1]]) for run in runs]
    children: list[list[int]] = [[] for _ in runs]
    for ci, p in enumerate(parents):
        if p is not None:
            children[p].append(ci)

    return CliqueTree(
        tuple(
            Clique(
                frontal=tuple(run),
                separator=sep[run[-1]],
                frontal_dim=sum(dims[v] for v in run),
                separator_dim=sep_dim[run[-1]],
                parent=parents[ci],
                children=tuple(children[ci]),
            )
            for ci, run in enumerate(runs)
        )
    )


def ec_of_clique_tree(tree: CliqueTree) -> int:
    """Per-clique elimination cost sum d_f (d_f + d_s)^2 over the tree."""
    return sum(
        c.frontal_dim * (c.frontal_dim + c.separator_dim) ** 2 for c in tree.cliques
    )


def format_clique_tree(tree: CliqueTree) -> str:
    """Indented dump, one clique per line `[frontals | separators]`.

    Children print below their parent, indented two spaces per depth;
    sibling order follows clique construction order (elimination order of
    the first frontal variable).
    """
    lines: list[str] = []

    def emit(ci: int, depth: int) -> None:
        c = tree.cliques[ci]
        front = " ".join(str(v) for v in c.frontal)
        sep = " ".join(str(v) for v in sorted(c.separator))
        lines.append("  " * depth + f"[{front} | {sep}]")
        for child in c.children:
            emit(child, depth + 1)

    for root in tree.roots:
        emit(root, 0)
    return "\n".join(lines) + ("\n" if lines else "")
