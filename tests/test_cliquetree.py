import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphelim.cliquetree import (
    build_clique_tree,
    ec_of_clique_tree,
    format_clique_tree,
)
from graphelim.elimination import elimination_complexity, min_degree_ordering
from graphelim.graph import FactorGraph, Kind
from graphelim.simulate import worst_case_graph

from helpers import (
    ReferenceGraph,
    path_graph,
    random_block_graph,
    random_graph_and_ordering,
    random_ordering,
    reference_clique_tree,
    running_intersection_holds,
)


def test_single_variable_tree():
    g = ReferenceGraph()
    g.add_variable(Kind.POSE, 3)
    g = g.build()
    tree = build_clique_tree(g, [0])
    assert len(tree.cliques) == 1
    assert tree.root.frontal == (0,)
    assert not tree.root.separator
    assert ec_of_clique_tree(tree) == 27


def test_path_leaf_first_chain():
    g = path_graph(3)
    tree = build_clique_tree(g, [0, 1, 2])
    # b and c amalgamate into the root supernode; a hangs below
    assert len(tree.cliques) == 2
    root = tree.root
    assert 2 in root.frontal
    child = tree.cliques[root.children[0]]
    assert child.frontal == (0,)
    assert child.separator == {1}


def test_worst_case_2x2_tree_and_cost():
    g = worst_case_graph(2, 2, 1, 1)
    tree = build_clique_tree(g, [2, 3, 0, 1])
    fronts = sorted(c.frontal for c in tree.cliques)
    assert fronts == [(0, 1), (2,), (3,)]
    for c in tree.cliques:
        if c.frontal == (0, 1):
            assert not c.separator and c.parent is None
        else:
            assert c.separator == {0, 1}
            assert tree.cliques[c.parent].frontal == (0, 1)
    assert ec_of_clique_tree(tree) == 26


def test_parent_is_clique_owning_earliest_separator_variable():
    g = worst_case_graph(3, 2, 1, 1)
    order = [3, 4, 0, 1, 2]
    tree = build_clique_tree(g, order)
    pos = {v: i for i, v in enumerate(order)}
    for c in tree.cliques:
        if c.parent is None:
            continue
        first = min(c.separator, key=pos.__getitem__)
        assert first in tree.cliques[c.parent].frontal


def test_no_amalgamation_degenerates_to_elimination_cost():
    rng = random.Random(13)
    for _ in range(30):
        g = random_block_graph(rng, connected=False)
        order = random_ordering(rng, g.n_vars)
        tree = build_clique_tree(g, order, amalgamate=False)
        assert all(len(c.frontal) == 1 for c in tree.cliques)
        assert ec_of_clique_tree(tree) == elimination_complexity(g, order)


def test_frontal_partition_and_running_intersection():
    rng = random.Random(29)
    for _ in range(40):
        g = random_block_graph(rng, connected=True)
        order = min_degree_ordering(g)
        tree = build_clique_tree(g, order)
        frontals = [v for c in tree.cliques for v in c.frontal]
        assert sorted(frontals) == list(range(g.n_vars))
        assert running_intersection_holds(tree)
        for c in tree.cliques:
            assert c.frontal_dim == sum(g.dims[v] for v in c.frontal)
            assert c.separator_dim == sum(g.dims[v] for v in c.separator)


def test_forest_from_disconnected_graph():
    g = ReferenceGraph()
    for _ in range(4):
        g.add_variable(Kind.POSE, 1)
    g.add_factor((0, 1))
    g.add_factor((2, 3))
    g = g.build()
    tree = build_clique_tree(g, [0, 1, 2, 3])
    assert len(tree.roots) == 2
    with pytest.raises(ValueError):
        tree.root


def test_format_dump_golden():
    g = worst_case_graph(2, 2, 1, 1)
    tree = build_clique_tree(g, [2, 3, 0, 1])
    assert format_clique_tree(tree) == "[0 1 | ]\n  [2 | 0 1]\n  [3 | 0 1]\n"


def test_empty_graph_gives_empty_tree():
    tree = build_clique_tree(FactorGraph(), [])
    assert tree.cliques == ()
    assert ec_of_clique_tree(tree) == elimination_complexity(FactorGraph(), []) == 0
    assert format_clique_tree(tree) == ""


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_matches_fill_simulation_reference(rng):
    g, order = random_graph_and_ordering(rng)
    for amalgamate in (True, False):
        assert build_clique_tree(g, order, amalgamate) == reference_clique_tree(
            g, order, amalgamate
        )
