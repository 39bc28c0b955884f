"""Block factor graphs and their variable-adjacency view.

A factor graph here is a hypergraph: variables carry a scalar dimension
(a pose block or a landmark block), factors are hyperedges over variable
ids. All elimination analysis runs on the induced variable adjacency:
two variables are neighbors iff some factor contains both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, pairwise
from pathlib import Path
from typing import Sequence

import numpy as np

from .report import ParseError


class Kind(Enum):
    POSE = "POSE"
    LANDMARK = "LANDMARK"


@dataclass(frozen=True)
class Variable:
    id: int
    kind: Kind
    dim: int


@dataclass(frozen=True)
class Factor:
    id: int
    vars: tuple[int, ...]


def _check_factor(ids: list[int], n_vars: int) -> None:
    """Raise the first fault of one factor over variables 0..n_vars-1, if any."""
    if not ids:
        raise ValueError("factor needs at least one variable")
    for i, v in enumerate(ids):
        if not 0 <= v < n_vars:
            raise ValueError(f"factor references unknown variable {v}")
        if v in ids[:i]:
            raise ValueError(f"duplicate variable {v} in factor")


class FactorGraph:
    """Variables and factors, checked and assembled in one call, never mutated.

    Variable `i` is (`kinds[i]`, `dims[i]`), so ids are dense and 0-based; factor
    `f` spans `factor_vars[offsets[f]:offsets[f + 1]]`. Bad input raises its first fault.
    """

    def __init__(self, kinds=(), dims=(), factor_vars=(), offsets=(0,)):
        self._kinds = tuple(kinds)
        self._dims = [int(d) for _, d in zip(self._kinds, dims, strict=True)]
        ids = self._ids = np.asarray(factor_vars, dtype=np.int64).reshape(-1)
        ptr = self._ptr = np.asarray(offsets, dtype=np.int64).reshape(-1)
        n = len(self._kinds)
        bad = [d for d in self._dims if d < 1]
        if bad:
            raise ValueError(f"variable dim must be >= 1, got {bad[0]}")
        arity = np.diff(ptr)
        if ptr.size == 0 or ptr[0] != 0 or ptr[-1] != ids.size or (arity < 0).any():
            raise ValueError("factor offsets must rise from 0 to the number of factor ids")
        # each factor's (variable, neighbor) keys v * n + u, one arity at a time;
        # every temporary is dropped once it has served, so the high-water mark
        # is the adjacency plus the stored id arrays
        keys = [np.empty(0, np.int64)]
        fault = (arity == 0).any() or (ids < 0).any() or (ids >= n).any()
        for a in np.flatnonzero(np.bincount(arity)).tolist():
            members = ids[ptr[:-1][arity == a, None] + np.arange(a)]
            u, w = (members[:, k].ravel() for k in np.triu_indices(a, 1))
            del members
            fault = fault or (u == w).any()
            keys += [u * n + w, w * n + u]
            del u, w
        if fault:  # raise the first fault in factor order
            for a, b in pairwise(ptr.tolist()):
                _check_factor(ids[a:b].tolist(), n)
        keys = np.concatenate(keys)
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        bounds = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
        nbr = np.arange(n).astype(object)[keys % max(n, 1)]  # one int object per id
        del keys
        self._adj = [frozenset(nbr[a:b].tolist()) for a, b in pairwise(bounds)]

    @cached_property
    def variables(self) -> list[Variable]:
        return [Variable(*v) for v in zip(range(self.n_vars), self._kinds, self._dims)]

    @cached_property
    def factors(self) -> list[Factor]:
        ids, ptr = self._ids.tolist(), self._ptr.tolist()
        return [Factor(f, tuple(ids[a:b])) for f, (a, b) in enumerate(pairwise(ptr))]

    def adjacency(self) -> list[set[int]]:
        """Per-variable neighbor sets (fresh copies, safe to mutate)."""
        return [set(s) for s in self._adj]

    def neighbors(self, var_id: int) -> frozenset[int]:
        return self._adj[var_id]

    @property
    def n_vars(self) -> int:
        return len(self._kinds)

    @property
    def n_factors(self) -> int:
        return self._ptr.size - 1

    @property
    def dims(self) -> list[int]:
        return list(self._dims)

    @property
    def n_poses(self) -> int:
        return self._kinds.count(Kind.POSE)

    @property
    def n_landmarks(self) -> int:
        return self._kinds.count(Kind.LANDMARK)

    def ids_of_kind(self, kind: Kind) -> list[int]:
        return [i for i, k in enumerate(self._kinds) if k is kind]

    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def __eq__(self, other: object) -> bool:
        """Same variables, same multiset of factors; numbering is not load-bearing."""
        if not isinstance(other, FactorGraph):
            return NotImplemented
        return self.variables == other.variables and sorted(
            f.vars for f in self.factors) == sorted(f.vars for f in other.factors)

    def __repr__(self) -> str:
        return (f"FactorGraph({self.n_vars} vars: {self.n_poses} poses,"
                f" {self.n_landmarks} landmarks; {self.n_factors} factors)")


def check_ordering(graph: FactorGraph, ordering: Sequence[int]) -> None:
    """Reject an ordering that is not a permutation of the graph's variable ids."""
    if len(ordering) != graph.n_vars or set(ordering) != set(range(graph.n_vars)):
        raise ValueError(f"ordering is not a permutation of the {graph.n_vars} variable ids")


# -- file I/O ------------------------------------------------------------
#
# Line-oriented text, UTF-8, LF:
#   V <id> <POSE|LANDMARK> <dim>
#   F <id> <vid> [<vid> ...]
# Comments start with '#'; blank lines ignored. Variable records must
# appear before factors that reference them, ids in insertion order.


def graph_to_text(graph: FactorGraph) -> str:
    """The graph's text, each run of equal-arity factors formatted by one `%`."""
    n = graph.n_vars
    kinds = (k.value for k in graph._kinds)
    parts = ["V %d %s %d\n" * n % tuple(chain(*zip(range(n), kinds, graph._dims)))]
    ids, ptr = graph._ids, graph._ptr  # no Factor records
    arity = np.diff(ptr)
    # first factor of each run of equal arity; no factor has arity 0
    runs = np.flatnonzero(np.diff(arity, prepend=0)).tolist() + [arity.size]
    for f, g in pairwise(runs):
        rows = np.insert(ids[ptr[f]:ptr[g]].reshape(g - f, -1), 0, np.arange(f, g), axis=1)
        template = "F %d" + " %d" * int(arity[f]) + "\n"
        parts.append(template * (g - f) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def save_graph(graph: FactorGraph, path: str | Path) -> None:
    Path(path).write_text(graph_to_text(graph), encoding="utf-8", newline="\n")


def graph_from_text(text: str, source: str = "<string>") -> FactorGraph:
    kinds, dims, ids, offsets = [], [], [], [0]  # each record is checked as it is read
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            if fields[0] == "V":
                if len(fields) != 4:
                    raise ValueError("expected 'V <id> <kind> <dim>'")
                vid, kind_s, dim_s = fields[1:]
                if kind_s not in {k.value for k in Kind}:
                    raise ValueError(f"unknown kind {kind_s!r}")
                dim = int(dim_s)
                if int(vid) != len(kinds):
                    raise ValueError(
                        f"variable id {vid} out of order (expected {len(kinds)})"
                    )
                if dim < 1:
                    raise ValueError(f"variable dim must be >= 1, got {dim}")
                kinds.append(Kind(kind_s))
                dims.append(dim)
            elif fields[0] == "F":
                if len(fields) < 3:
                    raise ValueError("expected 'F <id> <vid>...'")
                fid, n_factors = int(fields[1]), len(offsets) - 1
                if fid != n_factors:
                    raise ValueError(f"factor id {fid} out of order (expected {n_factors})")
                factor = [int(v) for v in fields[2:]]
                _check_factor(factor, len(kinds))  # declared on an earlier line
                ids.extend(factor)
                offsets.append(len(ids))
            else:
                raise ValueError(f"unknown record tag {fields[0]!r}")
        except ValueError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    return FactorGraph(kinds, dims, ids, offsets)


def load_graph(path: str | Path) -> FactorGraph:
    path = Path(path)
    return graph_from_text(path.read_text(encoding="utf-8"), source=str(path))
