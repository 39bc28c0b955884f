"""Multifrontal clique trees built from the elimination tree.

Each variable's elimination clique is {var} union its separator, read off
`elimination_tree`. Consecutive variables amalgamate into one supernode
when the later variable's elimination clique equals the earlier one's
minus itself AND the later variable has exactly one child in the
elimination tree (strict / fundamental supernodes, no relaxed
amalgamation). The per-clique cost sum d_f(C) * (d_f(C) + d_s(C))^2 is
the clique-tree analogue of the per-variable elimination cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .elimination import elimination_tree
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
    graph: FactorGraph, ordering: Sequence[int], amalgamate: bool = True
) -> CliqueTree:
    """Supernodal clique tree for `graph` eliminated under `ordering`.

    With ``amalgamate=False`` every variable keeps its own singleton
    clique, in which case the clique-tree cost degenerates to the
    per-variable elimination cost exactly.
    """
    parent, sep = elimination_tree(graph, ordering)
    dims = graph.dims
    etree_children = Counter(parent)

    # group consecutive positions into supernodes; runs[-1][-1] is the
    # variable eliminated just before w
    runs: list[list[int]] = []
    for w in ordering:
        merged = amalgamate and runs and etree_children[w] == 1
        if merged and sep[runs[-1][-1]] == frozenset({w}) | sep[w]:
            runs[-1].append(w)
        else:
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
                separator_dim=sum(dims[v] for v in sep[run[-1]]),
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
