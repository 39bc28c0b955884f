import math
import random

import pytest
from hypothesis import given, settings

from graphelim.graph import (
    FactorGraph,
    Kind,
    ParseError,
    graph_from_text,
    graph_to_text,
    load_graph,
    save_graph,
)
from graphelim.simulate import worst_case_graph

from helpers import ReferenceGraph, graph_from_records, graph_records, random_block_graph


def test_add_variable_sequential_ids():
    g = ReferenceGraph()
    assert g.add_variable(Kind.POSE, 6) == 0
    assert g.n_vars == 1
    assert g.add_variable(Kind.LANDMARK, 3) == 1
    g = g.build()
    assert g.variables[1].kind is Kind.LANDMARK


def test_add_variable_rejects_zero_dim():
    g = ReferenceGraph()
    with pytest.raises(ValueError):
        g.add_variable(Kind.POSE, 0)


def test_add_factor_updates_adjacency():
    g = ReferenceGraph()
    g.add_variable(Kind.POSE, 1)
    g.add_variable(Kind.POSE, 1)
    assert g.add_factor((0, 1)) == 0
    g = g.build()
    assert g.neighbors(0) == {1}
    assert g.neighbors(1) == {0}


def test_unary_factor_adds_no_edges():
    g = ReferenceGraph()
    g.add_variable(Kind.POSE, 3)
    g.add_factor((0,))
    g = g.build()
    assert g.neighbors(0) == frozenset()


def test_add_factor_rejects_duplicates_and_unknown():
    g = ReferenceGraph()
    g.add_variable(Kind.POSE, 1)
    with pytest.raises(ValueError):
        g.add_factor((0, 0))
    with pytest.raises(ValueError):
        g.add_factor((0, 5))


def test_worst_case_adjacency_small():
    # two poses, two landmarks: each landmark sees both poses
    g = worst_case_graph(2, 2, 1, 1)
    assert g.neighbors(2) == {0, 1}
    assert g.neighbors(3) == {0, 1}
    assert g.neighbors(0) == {1, 2, 3}


def test_path_adjacency():
    g = ReferenceGraph()
    for _ in range(3):
        g.add_variable(Kind.POSE, 6)
    g.add_factor((0, 1))
    g.add_factor((1, 2))
    g = g.build()
    assert g.neighbors(1) == {0, 2}


def test_empty_graph_has_no_neighbors():
    g = ReferenceGraph()
    g.add_variable(Kind.POSE, 1)
    g.add_variable(Kind.POSE, 1)
    g = g.build()
    assert g.neighbors(0) == frozenset() and g.neighbors(1) == frozenset()


def test_adjacency_symmetric_irreflexive_and_bounded():
    rng = random.Random(7)
    for _ in range(50):
        g = random_block_graph(rng, connected=False)
        adj = g.adjacency()
        for v, nbrs in enumerate(adj):
            assert v not in nbrs
            for u in nbrs:
                assert v in adj[u]
        bound = sum(math.comb(len(f.vars), 2) for f in g.factors)
        assert g.edge_count() <= bound


def test_roundtrip_small():
    g = worst_case_graph(2, 2)
    text = graph_to_text(g)
    assert graph_from_text(text) == g


def test_roundtrip_random_graphs():
    rng = random.Random(123)
    for _ in range(1000):
        g = random_block_graph(rng, n_min=1, n_max=8, connected=False)
        assert graph_from_text(graph_to_text(g)) == g


def test_roundtrip_via_files(tmp_path):
    g = worst_case_graph(3, 2, 6, 3)
    path = tmp_path / "graph.txt"
    save_graph(g, path)
    assert load_graph(path) == g


def test_empty_file_gives_empty_graph():
    g = graph_from_text("")
    assert g.n_vars == 0 and not g.factors


def test_parse_error_reports_line():
    text = "V 0 POSE 1\nV 1 POSE 1\nV 2 POSE 1\nF 0 0 99\n"
    with pytest.raises(ParseError) as err:
        graph_from_text(text)
    assert err.value.line_no == 4
    assert "99" in str(err.value)


def test_parse_error_on_bad_kind():
    with pytest.raises(ParseError) as err:
        graph_from_text("V 0 WIDGET 1\n")
    assert err.value.line_no == 1


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nV 0 POSE 2\n# mid\nF 0 0\n"
    g = graph_from_text(text)
    assert g.n_vars == 1 and len(g.factors) == 1


def test_structural_equality_ignores_factor_order():
    a = ReferenceGraph()
    b = ReferenceGraph()
    for g in (a, b):
        g.add_variable(Kind.POSE, 1)
        g.add_variable(Kind.POSE, 1)
        g.add_variable(Kind.LANDMARK, 3)
    a.add_factor((0, 1))
    a.add_factor((0, 2))
    b.add_factor((0, 2))
    b.add_factor((0, 1))
    a, b = a.build(), b.build()
    assert a == b


def reference_outcome(kinds, dims, factors):
    """The per-factor builder's graph, or the text of its first error."""
    ref = ReferenceGraph()
    try:
        for kind, dim in zip(kinds, dims):
            ref.add_variable(kind, dim)
        for f in factors:
            ref.add_factor(f)
    except ValueError as exc:
        return str(exc)
    return ref


def constructor_outcome(kinds, dims, factors):
    """`FactorGraph` from flat ids and offsets, or the text of its error."""
    try:
        return graph_from_records(kinds, dims, factors)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(records=graph_records())
def test_constructor_matches_per_factor_builder(records):
    ref = reference_outcome(*records)
    g = constructor_outcome(*records)
    assert g.variables == ref.variables
    assert g.factors == ref.factors
    assert g.adjacency() == ref.adjacency()
    assert [g.neighbors(v) for v in range(g.n_vars)] == [
        ref.neighbors(v) for v in range(ref.n_vars)
    ]
    assert g.n_factors == len(ref.factors)
    assert g.edge_count() == ref.edge_count()


@settings(max_examples=500, deadline=None)
@given(records=graph_records(valid=False))
def test_constructor_raises_the_per_factor_builders_first_error(records):
    ref = reference_outcome(*records)
    g = constructor_outcome(*records)
    if isinstance(ref, str):
        assert g == ref
    else:
        assert graph_to_text(g) == graph_to_text(ref.build())


@pytest.mark.parametrize(
    "dims, factors, message",
    [
        ([1, 1], [[0, 1], [1, 5]], "factor references unknown variable 5"),
        ([1, 1], [[0, -1]], "factor references unknown variable -1"),
        ([1, 1, 1], [[0, 1], [2, 1, 2]], "duplicate variable 2 in factor"),
        ([1, 1], [[0, 1], [], [0, 0]], "factor needs at least one variable"),
        ([2, 0, -1], [[0, 0]], "variable dim must be >= 1, got 0"),
    ],
    ids=["unknown", "negative", "repeated", "empty", "dim"],
)
def test_constructor_error_text(dims, factors, message):
    kinds = [Kind.POSE] * len(dims)
    assert reference_outcome(kinds, dims, factors) == message
    assert constructor_outcome(kinds, dims, factors) == message


def test_constructor_rejects_bad_offsets_and_lengths():
    with pytest.raises(ValueError):
        FactorGraph([Kind.POSE], [1, 1])
    for offsets in ([], [1, 2], [0, 2, 1, 2], [0, 1]):
        with pytest.raises(ValueError):
            FactorGraph([Kind.POSE] * 2, [1, 1], [0, 1], offsets)


def test_graph_is_not_mutated_by_its_views():
    g = worst_case_graph(2, 2, 1, 1)
    g.adjacency()[0].add(0)
    assert g.neighbors(0) == {1, 2, 3}
    g.dims.append(5)
    assert g.dims == [1, 1, 1, 1]
