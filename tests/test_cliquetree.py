import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphelim.cliquetree import (
    build_clique_tree,
    ec_of_clique_tree,
    format_clique_tree,
)
from graphelim.elimination import (
    elimination_complexity,
    elimination_tree,
    min_degree_ordering,
)
from graphelim.graph import FactorGraph, Kind
from graphelim.simulate import (
    build_graph,
    default_config,
    simulate_trajectory,
    worst_case_graph,
)

from helpers import (
    ReferenceGraph,
    path_graph,
    random_block_graph,
    random_graph_and_ordering,
    random_ordering,
    reference_clique_tree,
    reference_simulate_elimination,
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
    tree = elimination_tree(g, order)
    for amalgamate in (True, False):
        expect = reference_clique_tree(g, order, amalgamate)
        assert build_clique_tree(g, order, amalgamate) == expect
        assert build_clique_tree(g, order, amalgamate, tree=tree) == expect


# -- both costs from one elimination tree ---------------------------------------


def shared_tree_costs(g, order):
    """`ec_block` and `ec_bt` from one tree, as a report row computes them."""
    tree = elimination_tree(g, order)
    return (
        elimination_complexity(g, order, tree=tree),
        ec_of_clique_tree(build_clique_tree(g, order, tree=tree)),
    )


def reference_costs(g, order):
    """Both costs read off the pairwise fill simulation."""
    steps = reference_simulate_elimination(g, order).steps
    ec = sum(s.frontal_dim * (s.frontal_dim + s.separator_dim) ** 2 for s in steps)
    return ec, ec_of_clique_tree(reference_clique_tree(g, order))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_shared_tree_costs_equal_separate_and_reference_costs(rng):
    g, order = random_graph_and_ordering(rng)
    _, separator, separator_dim = elimination_tree(g, order)
    for v in range(g.n_vars):
        assert separator_dim[v] == sum(g.dims[u] for u in separator[v])
    ec, ec_bt = shared_tree_costs(g, order)
    assert ec == elimination_complexity(g, order)
    assert ec_bt == ec_of_clique_tree(build_clique_tree(g, order))
    assert (ec, ec_bt) == reference_costs(g, order)


def test_shared_tree_costs_on_desk_final_frames_and_worst_cases():
    graphs = [worst_case_graph(120, 240), worst_case_graph(300, 600)]
    for seed in (1, 2, 3):
        cfg = default_config(seed=seed)
        log = simulate_trajectory(cfg)
        graphs.append(
            build_graph(log, cfg.d_x, cfg.d_l, min_obs_to_init=cfg.min_obs_to_init)
        )
    for g in graphs:
        order = min_degree_ordering(g)
        assert shared_tree_costs(g, order) == reference_costs(g, order)
