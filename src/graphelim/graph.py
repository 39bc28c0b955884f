"""Block factor graphs and their variable-adjacency view.

A factor graph here is a hypergraph: variables carry a scalar dimension
(a pose block or a landmark block), factors are hyperedges over variable
ids. All elimination analysis runs on the induced variable adjacency:
two variables are neighbors iff some factor contains both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable


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


class ParseError(ValueError):
    """Malformed graph/log/ordering file; carries the offending line number."""

    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}:{line_no}: {message}")
        self.line_no = line_no


class FactorGraph:
    """Mutable-on-build, read-only-after container for variables and factors.

    Variable ids are dense 0-based integers assigned in insertion order,
    which permits array-backed adjacency everywhere downstream. Mutation
    is single-writer; once built, instances are safe to share read-only.
    """

    def __init__(self) -> None:
        self.variables: list[Variable] = []
        self.factors: list[Factor] = []
        self._adj: list[set[int]] = []

    # -- construction -------------------------------------------------

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

    # -- views ---------------------------------------------------------

    def adjacency(self) -> list[set[int]]:
        """Per-variable neighbor sets (fresh copies, safe to mutate)."""
        return [set(s) for s in self._adj]

    def neighbors(self, var_id: int) -> frozenset[int]:
        return frozenset(self._adj[var_id])

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def dims(self) -> list[int]:
        return [v.dim for v in self.variables]

    @property
    def n_poses(self) -> int:
        return sum(1 for v in self.variables if v.kind is Kind.POSE)

    @property
    def n_landmarks(self) -> int:
        return sum(1 for v in self.variables if v.kind is Kind.LANDMARK)

    def ids_of_kind(self, kind: Kind) -> list[int]:
        return [v.id for v in self.variables if v.kind is kind]

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    # -- equality --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same variables, same multiset of factors.

        Factor numbering is not load-bearing, so factors compare as a
        sorted multiset of their variable tuples.
        """
        if not isinstance(other, FactorGraph):
            return NotImplemented
        if self.variables != other.variables:
            return False
        return sorted(f.vars for f in self.factors) == sorted(
            f.vars for f in other.factors
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"FactorGraph({self.n_vars} vars: {self.n_poses} poses,"
            f" {self.n_landmarks} landmarks; {len(self.factors)} factors)"
        )


# -- file I/O ------------------------------------------------------------
#
# Line-oriented text, UTF-8, LF:
#   V <id> <POSE|LANDMARK> <dim>
#   F <id> <vid> [<vid> ...]
# Comments start with '#'; blank lines ignored. Variable records must
# appear before factors that reference them, ids in insertion order.


def graph_to_text(graph: FactorGraph) -> str:
    lines = []
    for v in graph.variables:
        lines.append(f"V {v.id} {v.kind.value} {v.dim}")
    for f in graph.factors:
        lines.append(f"F {f.id} " + " ".join(str(v) for v in f.vars))
    return "\n".join(lines) + ("\n" if lines else "")


def save_graph(graph: FactorGraph, path: str | Path) -> None:
    Path(path).write_text(graph_to_text(graph), encoding="utf-8", newline="\n")


def graph_from_text(text: str, source: str = "<string>") -> FactorGraph:
    graph = FactorGraph()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        try:
            if tag == "V":
                if len(fields) != 4:
                    raise ValueError("expected 'V <id> <kind> <dim>'")
                vid, kind_s, dim_s = fields[1:]
                try:
                    kind = Kind(kind_s)
                except ValueError:
                    raise ValueError(f"unknown kind {kind_s!r}") from None
                dim = int(dim_s)
                if int(vid) != graph.n_vars:
                    raise ValueError(
                        f"variable id {vid} out of order (expected {graph.n_vars})"
                    )
                graph.add_variable(kind, dim)
            elif tag == "F":
                if len(fields) < 3:
                    raise ValueError("expected 'F <id> <vid>...'")
                fid = int(fields[1])
                if fid != len(graph.factors):
                    raise ValueError(
                        f"factor id {fid} out of order (expected {len(graph.factors)})"
                    )
                graph.add_factor(int(v) for v in fields[2:])
            else:
                raise ValueError(f"unknown record tag {tag!r}")
        except ValueError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    return graph


def load_graph(path: str | Path) -> FactorGraph:
    path = Path(path)
    return graph_from_text(path.read_text(encoding="utf-8"), source=str(path))
